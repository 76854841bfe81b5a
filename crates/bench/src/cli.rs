//! The one flag parser behind every `tvmnp` subcommand.
//!
//! A subcommand declares its flags as a list of [`Flag`]s, each borrowing
//! the field it fills; [`parse`] walks the arguments once; [`usage`] is
//! generated from the same list, so a flag cannot be accepted without
//! being listed. Every bad flag — unknown, missing value, rejected value —
//! leaves through [`usage_error`] with exit code 2.

use std::path::PathBuf;
use std::str::FromStr;

/// Fills the slot a flag borrows from the value typed after it; the error
/// is the message for [`usage_error`].
type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

/// One declared flag: its name, the placeholder its value is shown under
/// in the usage line, and the setter borrowing the slot it fills.
pub(crate) struct Flag<'a> {
    /// The flag as typed, leading dashes included.
    pub name: &'static str,
    /// Value placeholder for the usage line; `None` for a switch.
    pub value: Option<&'static str>,
    /// Whether the flag may be given more than once (each use appends).
    pub repeatable: bool,
    set: Setter<'a>,
}

impl<'a> Flag<'a> {
    /// A flag that takes no value and sets `slot`.
    pub(crate) fn switch(name: &'static str, slot: &'a mut bool) -> Self {
        Flag {
            name,
            value: None,
            repeatable: false,
            set: Box::new(move |_| {
                *slot = true;
                Ok(())
            }),
        }
    }

    /// A value flag whose parsed value passes through `store`; a value
    /// that does not parse as `T`, or that `valid` rejects, is an error
    /// naming the flag and the value, and `store` never sees it.
    fn parsed<T: FromStr + 'a>(
        name: &'static str,
        value: &'static str,
        valid: fn(&T) -> bool,
        mut store: impl FnMut(T) + 'a,
    ) -> Self {
        Flag {
            name,
            value: Some(value),
            repeatable: false,
            set: Box::new(move |v| match v.parse::<T>() {
                Ok(parsed) if valid(&parsed) => {
                    store(parsed);
                    Ok(())
                }
                _ => Err(format!("invalid value '{v}' for {name} <{value}>")),
            }),
        }
    }

    /// A flag whose slot stays `None` unless it is given a value that
    /// parses as `T` and that `valid` accepts.
    pub(crate) fn value<T: FromStr + 'a>(
        name: &'static str,
        value: &'static str,
        slot: &'a mut Option<T>,
        valid: fn(&T) -> bool,
    ) -> Self {
        Flag::parsed(name, value, valid, move |v| *slot = Some(v))
    }

    /// An optional path: any value is accepted.
    pub(crate) fn path(
        name: &'static str,
        value: &'static str,
        slot: &'a mut Option<PathBuf>,
    ) -> Self {
        Flag::value(name, value, slot, |_| true)
    }

    /// A flag that may repeat; each use appends its value to `slot`.
    pub(crate) fn repeatable<T: FromStr + 'a>(
        name: &'static str,
        value: &'static str,
        slot: &'a mut Vec<T>,
    ) -> Self {
        Flag {
            repeatable: true,
            ..Flag::parsed(name, value, |_| true, move |v| slot.push(v))
        }
    }
}

/// Walk `args` once, filling the slots `flags` borrow. The error is the
/// message for [`usage_error`]; slots filled before it stay filled.
pub(crate) fn parse(flags: &mut [Flag], args: &[String]) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = flags.iter_mut().find(|f| f.name == arg) else {
            return Err(format!("unknown argument '{arg}'"));
        };
        let value = match flag.value {
            None => "",
            Some(placeholder) => args
                .next()
                .ok_or_else(|| format!("{} requires a value <{placeholder}>", flag.name))?,
        };
        (flag.set)(value)?;
    }
    Ok(())
}

/// The usage line of `command`: every declared flag once, in declaration
/// order.
pub(crate) fn usage(command: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: tvmnp {command}");
    for f in flags {
        let value = f.value.map(|v| format!(" <{v}>")).unwrap_or_default();
        let more = if f.repeatable { "..." } else { "" };
        line.push_str(&format!(" [{}{value}]{more}", f.name));
    }
    line
}

/// The one exit for a bad command line: the message, the usage line, exit
/// code 2.
pub(crate) fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// The one exit for a run that failed after its command line was
/// accepted: the message, exit code 1.
pub(crate) fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// [`parse`], leaving through [`usage_error`] on a bad flag. Returns the
/// usage line for the subcommand's own post-parse checks.
pub(crate) fn parse_or_exit(command: &str, mut flags: Vec<Flag>, args: &[String]) -> String {
    let usage = usage(command, &flags);
    if let Err(message) = parse(&mut flags, args) {
        usage_error(&message, &usage);
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn each_kind_fills_its_slot() {
        let (mut on, mut runs, mut out) = (false, None::<usize>, None::<PathBuf>);
        let mut specs = Vec::<String>::new();
        let mut flags = vec![
            Flag::switch("--on", &mut on),
            Flag::value("--runs", "n", &mut runs, |&n| n > 0),
            Flag::path("--out", "path", &mut out),
            Flag::repeatable("--spec", "spec", &mut specs),
        ];
        let args = [
            "--spec", "a", "--on", "--runs", "3", "--out", "x/y", "--spec", "b",
        ];
        assert_eq!(parse(&mut flags, &argv(&args)), Ok(()));
        drop(flags);
        assert!(on);
        assert_eq!(runs, Some(3));
        assert_eq!(out, Some(PathBuf::from("x/y")));
        assert_eq!(specs, ["a", "b"]);
    }

    #[test]
    fn a_rejected_value_leaves_the_slot_untouched() {
        let (mut runs, mut slo) = (Some(5usize), None::<f64>);
        for (args, message) in [
            (&["--runs", "0"][..], "invalid value '0' for --runs <n>"),
            (&["--runs", "x"], "invalid value 'x' for --runs <n>"),
            (&["--slo", "nan"], "invalid value 'nan' for --slo <f>"),
            (&["--runs"], "--runs requires a value <n>"),
            (&["--nope"], "unknown argument '--nope'"),
        ] {
            let mut flags = vec![
                Flag::value("--runs", "n", &mut runs, |&n| n > 0),
                Flag::value("--slo", "f", &mut slo, |&f| f > 0.0),
            ];
            assert_eq!(parse(&mut flags, &argv(args)), Err(message.to_string()));
        }
        assert_eq!((runs, slo), (Some(5), None));
    }

    #[test]
    fn usage_lists_every_flag_once_in_declaration_order() {
        let (mut on, mut runs, mut specs) = (false, None::<usize>, Vec::<String>::new());
        let flags = vec![
            Flag::switch("--on", &mut on),
            Flag::value("--runs", "n", &mut runs, |_| true),
            Flag::repeatable("--spec", "spec", &mut specs),
        ];
        assert_eq!(
            usage("demo", &flags),
            "usage: tvmnp demo [--on] [--runs <n>] [--spec <spec>]..."
        );
    }

    /// `sched` concatenates `ObsCli`'s flags with `ServeCli`'s, `bench`
    /// its own with `ServeCli`'s, and `obs_check --profile <file>`
    /// shares a name with `ObsCli`'s switch: within one table a name must
    /// still be declared once.
    #[test]
    fn no_subcommand_declares_a_name_twice() {
        let mut obs = crate::session::ObsCli::default();
        let mut serve = crate::session::ServeCli::default();
        let mut bench = crate::bench::BenchCli::default();
        let mut conformance = crate::conformance::ConformanceCli::default();
        let mut obs_check = crate::obs_check::ObsCheckCli::default();
        let mut sched = obs.flags();
        sched.extend(serve.flags());
        for (command, flags) in [
            ("sched", sched),
            ("bench", bench.flags()),
            ("conformance", conformance.flags()),
            ("obs_check", obs_check.flags()),
        ] {
            let mut names: Vec<_> = flags.iter().map(|f| f.name).collect();
            let declared = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), declared, "{command} declares a flag twice");
        }
    }
}
