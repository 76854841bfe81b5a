//! The dead-pub gate (`scripts/dead_pub.sh`) on small synthetic trees: a
//! called item passes, and an item reached only through its own
//! definition, a `pub use`, a comment, a string literal or a test module
//! fails unless `scripts/dead_pub.allow` names it with a reason; so does a
//! `pub` function or constant that nothing outside its crate's `src/`
//! names.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A throwaway tree with the gate script, an allowlist and the given
/// source files; removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str, files: &[(&str, &str)], allow: &str) -> Tree {
        let root =
            std::env::temp_dir().join(format!("tvmnp-dead-pub-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/dead_pub.sh");
        for dir in ["scripts", "crates/a/src", "benchmark/src", "examples"] {
            fs::create_dir_all(root.join(dir)).unwrap();
        }
        fs::copy(script, root.join("scripts/dead_pub.sh")).unwrap();
        fs::write(root.join("scripts/dead_pub.allow"), allow).unwrap();
        for (path, text) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        Tree(root)
    }

    /// Run the gate; `(passed, stdout + stderr)`.
    fn gate(&self) -> (bool, String) {
        let out = Command::new("bash")
            .arg(self.0.join("scripts/dead_pub.sh"))
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        (out.status.success(), text)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const LIB: &str = "pub fn used() -> u32 { 1 }\npub struct Kept;\n";
const MAIN: &str = "fn main() { let _ = a::used(); let _k = a::Kept; }\n";

#[test]
fn called_pub_items_pass() {
    let tree = Tree::new(
        "called",
        &[
            ("crates/a/src/lib.rs", LIB),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(ok, "{text}");
    assert!(text.contains("2 pub items, 0 allowlisted"), "{text}");
}

#[test]
fn uncalled_pub_fn_fails() {
    let lib = format!("{LIB}pub fn orphan() {{}}\n");
    let tree = Tree::new(
        "uncalled",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("orphan has no non-test caller"), "{text}");
    assert!(!text.contains("used has"), "{text}");
}

#[test]
fn reexport_alone_is_no_caller() {
    let lib = format!("{LIB}pub mod inner;\npub use inner::{{\n    reexported,\n}};\n");
    let tree = Tree::new(
        "reexport",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("crates/a/src/inner.rs", "pub fn reexported() {}\n"),
            ("examples/demo.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("reexported has no non-test caller"), "{text}");
}

#[test]
fn test_and_comment_mentions_are_no_callers() {
    let lib = format!(
        "{LIB}/// Like helper().\npub fn helper() {{}} // helper\n// helper()\n\
         #[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ super::helper(); }}\n}}\n"
    );
    let tree = Tree::new(
        "mentions",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("helper has no non-test caller"), "{text}");
}

/// Words in a literal are no callers: `quoted` is named only in a panic
/// message, a string continued over a line break, a raw string and an
/// escaped `{{quoted}}`, while the `'"'` before the real calls must not
/// open a string and a `format!` capture of `CAPTURED` is a use.
#[test]
fn a_name_in_a_string_literal_is_no_caller() {
    let lib = format!("{LIB}pub fn quoted() {{}}\npub const CAPTURED: u32 = 1;\n");
    let main = r##"fn main() {
    let _q = '"';
    let _ = a::used();
    let _k = a::Kept;
    let _m = "see \
        quoted()";
    let _r = r#"quoted() "here""#;
    let _f = format!("{CAPTURED:>4} {{quoted}}");
    if _q == 'x' { panic!("quoted() is never called"); }
}
"##;
    let tree = Tree::new(
        "literal",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", main),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("quoted has no non-test caller"), "{text}");
    for live in ["used has", "Kept has", "CAPTURED has"] {
        assert!(!text.contains(live), "{text}");
    }
}

#[test]
fn allowlisted_name_passes() {
    let lib = format!("{LIB}pub fn orphan() {{}}\n");
    let tree = Tree::new(
        "allowed",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", MAIN),
        ],
        "# kept on purpose\norphan: the reference a test compares against\n",
    );
    let (ok, text) = tree.gate();
    assert!(ok, "{text}");
    assert!(text.contains("3 pub items, 1 allowlisted"), "{text}");
}

#[test]
fn stale_allow_entry_fails() {
    let tree = Tree::new(
        "stale",
        &[
            ("crates/a/src/lib.rs", LIB),
            ("benchmark/src/main.rs", MAIN),
        ],
        "used: no longer true, main calls it\n",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(
        text.contains("used is in scripts/dead_pub.allow but is neither uncalled nor local"),
        "{text}"
    );
}

#[test]
fn allow_entry_without_reason_fails() {
    let lib = format!("{LIB}pub fn orphan() {{}}\n");
    let tree = Tree::new(
        "reasonless",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", MAIN),
        ],
        "orphan\n",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("lines must read 'name: reason'"), "{text}");
}

/// `inner` is called, but only inside crate `a`.
const LOCAL: &str =
    "pub fn used() -> u32 { inner() }\npub struct Kept;\npub fn inner() -> u32 { 1 }\n";

#[test]
fn pub_fn_called_only_inside_its_crate_fails() {
    let tree = Tree::new(
        "local",
        &[
            ("crates/a/src/lib.rs", LOCAL),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(
        text.contains("inner is pub but nothing outside crates/a/src names it"),
        "{text}"
    );
    assert!(!text.contains("used is pub"), "{text}");
    assert!(!text.contains("has no non-test caller"), "{text}");
}

/// Another crate's source, its tests included, and the crate's own
/// integration tests are outside: each needs `inner` to be `pub`.
#[test]
fn pub_fn_named_outside_its_crate_passes() {
    for (name, path, text) in [
        (
            "other-crate",
            "crates/b/src/lib.rs",
            "pub(crate) fn b() -> u32 { a::inner() }\n",
        ),
        (
            "other-crate-test",
            "crates/b/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { a::inner(); }\n}\n",
        ),
        (
            "own-tests",
            "crates/a/tests/t.rs",
            "#[test]\nfn t() { a::inner(); }\n",
        ),
    ] {
        let tree = Tree::new(
            name,
            &[
                ("crates/a/src/lib.rs", LOCAL),
                ("benchmark/src/main.rs", MAIN),
                (path, text),
            ],
            "",
        );
        let (ok, text) = tree.gate();
        assert!(ok, "{name}: {text}");
    }
}

/// A `pub use` in another crate re-exports `inner` but reads nothing.
#[test]
fn reexport_in_another_crate_is_not_outside_use() {
    let tree = Tree::new(
        "local-reexport",
        &[
            ("crates/a/src/lib.rs", LOCAL),
            ("crates/b/src/lib.rs", "pub use a::inner;\n"),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(text.contains("inner is pub but nothing outside"), "{text}");
}

#[test]
fn allowlisted_local_pub_fn_passes() {
    let tree = Tree::new(
        "local-allowed",
        &[
            ("crates/a/src/lib.rs", LOCAL),
            ("benchmark/src/main.rs", MAIN),
        ],
        "inner: reached only through a macro expansion in other crates\n",
    );
    let (ok, text) = tree.gate();
    assert!(ok, "{text}");
    assert!(text.contains("3 pub items, 1 allowlisted"), "{text}");
}

#[test]
fn stale_local_allow_entry_fails() {
    let tree = Tree::new(
        "local-stale",
        &[
            ("crates/a/src/lib.rs", LOCAL),
            (
                "crates/b/src/lib.rs",
                "pub(crate) fn b() -> u32 { a::inner() }\n",
            ),
            ("benchmark/src/main.rs", MAIN),
        ],
        "inner: no longer true, crate b calls it\n",
    );
    let (ok, text) = tree.gate();
    assert!(!ok, "{text}");
    assert!(
        text.contains("inner is in scripts/dead_pub.allow but is neither uncalled nor local"),
        "{text}"
    );
}

/// A crate-visible item is rustc's: its `dead_code` lint resolves every
/// use, so the gate neither counts nor checks it.
#[test]
fn crate_visible_items_are_left_to_rustc() {
    let lib =
        format!("{LIB}pub(crate) fn private_helper() {{}}\npub(crate) const LIMIT: u32 = 1;\n");
    let tree = Tree::new(
        "crate-visible",
        &[
            ("crates/a/src/lib.rs", &lib),
            ("benchmark/src/main.rs", MAIN),
        ],
        "",
    );
    let (ok, text) = tree.gate();
    assert!(ok, "{text}");
    assert!(text.contains("2 pub items, 0 allowlisted"), "{text}");
}
