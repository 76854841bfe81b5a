//! The dead-pub gate (`scripts/dead_pub.sh`) on small synthetic trees: a
//! called item passes, and an item reached only through its own
//! definition, a `pub use`, a comment or a test module fails unless
//! `scripts/dead_pub.allow` names it with a reason.

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
            fs::write(root.join(path), text).unwrap();
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
        text.contains("used is in scripts/dead_pub.allow but is not an uncalled pub item"),
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
