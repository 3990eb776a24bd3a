//! The one flag parser behind every `cqa` command (and `cqa-fuzz`).
//!
//! A [`Flags`] holds one command's arguments — everything after the
//! command word — and hands them out by name: [`Flags::value`] for
//! `--name v` / `--name=v` (parsed with [`FromStr`]), [`Flags::switch`]
//! for a bare `--name`, and [`Flags::positionals`] for what is left
//! ([`Flags::finish`] for a command that takes none).
//! An option the command never asked for is an error naming the command,
//! so no flag is ever silently ignored. Range checks (threads ≥ 1,
//! fractions in `0..=1`, route names, byte sizes) stay with the
//! commands that own them.

use crate::CliError;
use std::fmt::Display;
use std::str::FromStr;

/// One command's arguments, consumed flag by flag.
#[derive(Debug)]
pub struct Flags<'a> {
    command: &'a str,
    /// `None` once a call has consumed the argument.
    args: Vec<Option<&'a str>>,
}

impl<'a> Flags<'a> {
    /// The arguments `args` of `command` (the command word itself not
    /// included).
    pub fn new(command: &'a str, args: &[&'a str]) -> Flags<'a> {
        Flags {
            command,
            args: args.iter().copied().map(Some).collect(),
        }
    }

    /// The value of `--name`, written `--name v` or `--name=v` and parsed
    /// as `T`; `None` when the flag is absent. When given twice, the last
    /// one wins.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        let mut found = None;
        for i in 0..self.args.len() {
            let Some(arg) = self.args[i] else { continue };
            let raw = if arg == name {
                self.args[i] = None;
                let next = self.args.get_mut(i + 1).and_then(Option::take);
                next.ok_or_else(|| CliError::new(format!("{name} needs a value")))?
            } else if let Some(v) = arg.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                self.args[i] = None;
                v
            } else {
                continue;
            };
            let parsed = raw
                .parse()
                .map_err(|e| CliError::new(format!("bad value {raw:?} for {name}: {e}")))?;
            found = Some(parsed);
        }
        Ok(found)
    }

    /// Whether the bare switch `--name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut found = false;
        for arg in &mut self.args {
            if *arg == Some(name) {
                *arg = None;
                found = true;
            }
        }
        found
    }

    /// The arguments no call consumed, in order. Any of them that looks
    /// like an option (`--…`) is one the command did not ask for, and
    /// fails.
    pub fn positionals(self) -> Result<Vec<&'a str>, CliError> {
        let rest: Vec<&str> = self.args.into_iter().flatten().collect();
        match rest.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(CliError::new(format!(
                "unknown {} option {unknown:?}",
                self.command
            ))),
            None => Ok(rest),
        }
    }

    /// End a command that takes flags only: like [`Flags::positionals`],
    /// and a leftover positional fails too.
    pub fn finish(self) -> Result<(), CliError> {
        let command = self.command;
        match self.positionals()?.first() {
            Some(extra) => Err(CliError::new(format!(
                "{command} takes no positional arguments, got {extra:?}"
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_in_both_spellings_and_leave_positionals() {
        let mut f = Flags::new("certain", &["q", "--threads", "3", "f", "--seed=9"]);
        assert_eq!(f.value::<usize>("--threads").unwrap(), Some(3));
        assert_eq!(f.value::<u64>("--seed").unwrap(), Some(9));
        assert_eq!(f.value::<u64>("--facts").unwrap(), None);
        assert_eq!(f.positionals().unwrap(), vec!["q", "f"]);
    }

    #[test]
    fn the_last_of_a_repeated_value_wins() {
        let mut f = Flags::new("generate", &["--seed", "1", "--seed=2"]);
        assert_eq!(f.value::<u64>("--seed").unwrap(), Some(2));
    }

    #[test]
    fn a_value_flag_without_its_value_fails() {
        let e = Flags::new("serve", &["--memory-budget"])
            .value::<String>("--memory-budget")
            .unwrap_err();
        assert_eq!(e.message, "--memory-budget needs a value");
        assert_eq!(e.code, 2);
    }

    #[test]
    fn an_unparseable_value_names_the_flag() {
        let e = Flags::new("certain", &["--threads", "lots"])
            .value::<usize>("--threads")
            .unwrap_err();
        assert!(
            e.message.starts_with("bad value \"lots\" for --threads"),
            "{e}"
        );
    }

    #[test]
    fn a_prefix_of_a_longer_flag_is_not_that_flag() {
        let mut f = Flags::new("generate", &["--seeds=3"]);
        assert_eq!(f.value::<u64>("--seed").unwrap(), None);
        let e = f.positionals().unwrap_err();
        assert_eq!(e.message, "unknown generate option \"--seeds=3\"");
    }

    #[test]
    fn switches_are_consumed_wherever_they_stand() {
        let mut f = Flags::new("batch", &["--stats", "db", "queries"]);
        assert!(f.switch("--stats"));
        assert!(!f.switch("--recompute"));
        assert_eq!(f.positionals().unwrap(), vec!["db", "queries"]);
    }

    #[test]
    fn options_nobody_asked_for_fail_naming_the_command() {
        let e = Flags::new("serve", &["--port", "99"])
            .positionals()
            .unwrap_err();
        assert_eq!(e.message, "unknown serve option \"--port\"");
        assert_eq!(e.code, 2);
        let e = Flags::new("classify", &["q", "--threads", "4"])
            .positionals()
            .unwrap_err();
        assert!(e.message.contains("unknown classify option"), "{e}");
    }

    #[test]
    fn finish_rejects_unknown_options_and_any_positional() {
        let mut f = Flags::new("fleet", &["--seed=3"]);
        assert_eq!(f.value::<u64>("--seed").unwrap(), Some(3));
        assert!(f.finish().is_ok());
        let e = Flags::new("fleet", &["--port", "9"]).finish().unwrap_err();
        assert_eq!(e.message, "unknown fleet option \"--port\"");
        let e = Flags::new("serve", &["extra"]).finish().unwrap_err();
        assert_eq!(
            e.message,
            "serve takes no positional arguments, got \"extra\""
        );
        assert_eq!(e.code, 2);
    }
}
