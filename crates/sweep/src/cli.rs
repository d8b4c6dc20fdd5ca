//! The one command-line parser of the suite's binaries.
//!
//! [`Args`] reads the process arguments once. A binary names each flag
//! it reads through [`Args::flag`], [`Args::value`] or [`Args::values`]
//! (`--flag value` and `--flag=value` both work), then calls
//! [`Args::finish`] before it prints anything. An argument no getter
//! named, or a value that does not parse, ends the process with one
//! `error: …` line on stderr and exit status 2 ([`usage_error`]).

use std::fmt::Display;
use std::str::FromStr;

/// A process's arguments, each marked once a getter has read it.
#[derive(Debug)]
pub struct Args {
    program: String,
    argv: Vec<String>,
    read: Vec<bool>,
}

/// The first item is the program path (`argv[0]`), the rest are the
/// arguments.
impl<S: Into<String>> FromIterator<S> for Args {
    fn from_iter<I: IntoIterator<Item = S>>(items: I) -> Args {
        let mut items = items.into_iter().map(Into::into);
        let program = items.next().unwrap_or_default();
        let argv: Vec<String> = items.collect();
        Args { program, read: vec![false; argv.len()], argv }
    }
}

impl Args {
    /// The arguments of this process.
    pub fn from_env() -> Args {
        std::env::args().collect()
    }

    /// The program's file stem (`table9`, `fig1`, …), or `"experiment"`
    /// when `argv[0]` is missing.
    pub fn program(&self) -> &str {
        let stem = std::path::Path::new(&self.program).file_stem();
        stem.and_then(|s| s.to_str()).unwrap_or("experiment")
    }

    /// `true` when the switch `--name` is given.
    pub fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        let mut given = false;
        for (a, read) in self.argv.iter().zip(&mut self.read) {
            if *a == flag {
                (*read, given) = (true, true);
            }
        }
        given
    }

    /// The value of `--name`, parsed, or `None` when the flag is absent.
    /// A value that does not parse, or a second `--name`, is a
    /// [`usage_error`] saying the flag `expects` something else.
    pub fn value<T: FromStr>(&mut self, name: &str, expects: &str) -> Option<T> {
        let mut values = self.values(name);
        if values.len() > 1 {
            usage_error(format!("--{name} is given more than once"));
        }
        let v = values.pop()?;
        match v.parse() {
            Ok(parsed) => Some(parsed),
            Err(_) => usage_error(format!("--{name} expects {expects}, got {v:?}")),
        }
    }

    /// Every value of the repeatable flag `--name`, in order. A
    /// trailing `--name` with no value is a [`usage_error`].
    pub fn values(&mut self, name: &str) -> Vec<String> {
        let flag = format!("--{name}");
        let mut values = Vec::new();
        let mut i = 0;
        while i < self.argv.len() {
            let value = if self.argv[i] == flag {
                self.read[i] = true;
                i += 1;
                let v = self.argv.get(i).map(String::as_str);
                Some(v.unwrap_or_else(|| usage_error(format!("{flag} needs a value"))))
            } else {
                self.argv[i].strip_prefix(&flag).and_then(|v| v.strip_prefix('='))
            };
            if let Some(v) = value {
                values.push(v.to_string());
                self.read[i] = true;
            }
            i += 1;
        }
        values
    }

    /// End parsing: the first argument no getter has read is a
    /// [`usage_error`].
    pub fn finish(&self) {
        if let Some(a) = self.unread() {
            usage_error(format!("unknown argument {a:?}"));
        }
    }

    fn unread(&self) -> Option<&str> {
        let mut unread = self.argv.iter().zip(&self.read).filter(|(_, read)| !**read);
        unread.next().map(|(a, _)| a.as_str())
    }
}

/// End the process on a bad command line: print `error: {msg}` on
/// stderr and exit with status 2.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        std::iter::once("target/release/table9").chain(s.iter().copied()).collect()
    }

    #[test]
    fn both_value_forms_parse() {
        let mut a = args(&["--runs", "8", "--seed=3", "--load", "0,0.5"]);
        assert_eq!(a.value::<usize>("runs", "an integer"), Some(8));
        assert_eq!(a.value::<u64>("seed", "an integer"), Some(3));
        assert_eq!(a.value::<String>("load", "a list").as_deref(), Some("0,0.5"));
        assert_eq!(a.value::<usize>("len", "an integer"), None);
        assert_eq!(a.unread(), None);
        assert_eq!(a.program(), "table9");
    }

    #[test]
    fn unread_arguments_are_reported_in_order() {
        let mut a = args(&["--runz", "5", "--profile", "stray"]);
        assert!(a.flag("profile"));
        assert!(!a.flag("link-stats"));
        assert_eq!(a.unread(), Some("--runz"));
        a.values("runz");
        assert_eq!(a.unread(), Some("stray"));
    }

    #[test]
    fn repeatable_values_keep_their_order() {
        let mut a = args(&["--suite-threshold", "gnn=2", "--suite-threshold=sweep=1.5"]);
        assert_eq!(a.values("suite-threshold"), ["gnn=2", "sweep=1.5"]);
        assert_eq!(a.unread(), None);
    }

    #[test]
    fn a_flag_is_not_a_prefix_of_a_longer_one() {
        let mut a = args(&["--shard-id=1", "--shard-idx", "2"]);
        assert_eq!(a.values("shard-id"), ["1"]);
        assert_eq!(a.unread(), Some("--shard-idx"));
    }

    #[test]
    fn rereading_a_flag_sees_the_same_value() {
        let mut a = args(&["--threads", "4"]);
        assert_eq!(a.value::<usize>("threads", "an integer"), Some(4));
        assert_eq!(a.value::<usize>("threads", "an integer"), Some(4));
        let nothing: Args = std::iter::empty::<String>().collect();
        assert_eq!(nothing.program(), "experiment");
    }
}
