//! The one reader for numeric, list and on/off `SFN_*` knobs.
//!
//! Environment values are untrusted input. [`knob`] trims a value and
//! parses it; a malformed value emits one `env.invalid` warning naming
//! the variable and the value, and the default is used instead, so a
//! typo never silently rescales an experiment. The lookup is injectable:
//! production passes [`process`], tests and the `config_env` fuzz target
//! pass a closure over their own variables and never touch the process
//! environment. `SFN_THREADS` and `SFN_SIMD` are read in `sfn-par`,
//! which sits below this crate.

use crate::Level;
use std::str::FromStr;

/// A variable lookup: `Some(value)` when `name` is set.
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The process environment as a [`Lookup`] (a non-Unicode value reads
/// as unset).
pub fn process(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Reads knob `name` through `lookup`: `default` when unset, else the
/// trimmed value parsed as `T`. A value that does not parse emits one
/// `env.invalid` event (`var`, `value`) and yields `default`.
pub fn knob<T: FromStr>(lookup: Lookup, name: &str, default: T) -> T {
    let Some(raw) = lookup(name) else {
        return default;
    };
    match raw.trim().parse() {
        Ok(v) => v,
        Err(_) => {
            crate::event(Level::Warn, "env.invalid")
                .field_str("var", name)
                .field_str("value", &raw)
                .emit();
            default
        }
    }
}

/// An on/off knob value: `1` is on, `0` is off, anything else is
/// malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub bool);

impl FromStr for Flag {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "1" => Ok(Flag(true)),
            "0" => Ok(Flag(false)),
            _ => Err(()),
        }
    }
}

/// A comma-separated, non-empty list knob value (`16, 24,32`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct List<T>(pub Vec<T>);

impl<T: FromStr> FromStr for List<T> {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        // `split` yields at least one item, so an empty value fails to
        // parse rather than producing an empty list.
        s.split(',')
            .map(|t| t.trim().parse().map_err(|_| ()))
            .collect::<Result<_, _>>()
            .map(List)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn vars(pairs: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_and_valid_values() {
        let get = vars(&[("N", " 42 "), ("X", "2.5")]);
        assert_eq!(knob(&get, "N", 7usize), 42, "trimmed");
        assert_eq!(knob(&get, "UNSET", 11usize), 11);
        assert_eq!(knob(&get, "X", 1.0f64), 2.5);
    }

    #[test]
    fn malformed_value_emits_one_event_and_keeps_the_default() {
        let _guard = crate::test_lock::hold();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        crate::add_event_observer(Box::new(move |line| {
            // Only this test's variables: other tests run concurrently.
            let ours = line.contains("\"BAD\"") || line.contains("\"NEG\"");
            if line.contains("env.invalid") && ours {
                sink.lock().unwrap().push(line.to_string());
            }
        }));
        let get = vars(&[("BAD", "not-a-number"), ("NEG", "-1")]);
        assert_eq!(knob(&get, "BAD", 7usize), 7);
        assert_eq!(knob(&get, "NEG", 3usize), 3);
        crate::clear_event_observers();
        let lines = seen.lock().unwrap().clone();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"var\":\"BAD\""), "{}", lines[0]);
        assert!(
            lines[0].contains("\"value\":\"not-a-number\""),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn nonzero_types_reject_zero() {
        let get = vars(&[("Z", "0")]);
        let d = std::num::NonZeroU64::new(5).unwrap();
        assert_eq!(knob(&get, "Z", d), d);
    }

    #[test]
    fn flags_and_lists() {
        let get = vars(&[
            ("ON", "1"),
            ("OFF", "0"),
            ("YES", "yes"),
            ("L", "16, 24,32"),
            ("E", ""),
            ("G", "8,x"),
        ]);
        assert!(knob(&get, "ON", Flag(false)).0);
        assert!(!knob(&get, "OFF", Flag(true)).0);
        assert!(!knob(&get, "YES", Flag(false)).0, "only 1/0 are flags");
        assert_eq!(knob(&get, "L", List(vec![1usize])).0, [16, 24, 32]);
        assert_eq!(knob(&get, "E", List(vec![1usize])).0, [1], "empty list");
        assert_eq!(knob(&get, "G", List(vec![1usize])).0, [1], "one bad item");
    }
}
