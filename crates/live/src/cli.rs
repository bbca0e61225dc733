//! Tiny flag parser shared by the CLI binaries (keeps the dependency
//! footprint inside the approved crate list).

use std::collections::HashMap;
use std::time::Duration;

/// Validate a strictly positive `--flag S` seconds value: a finite
/// number, `> 0`, and representable as a `Duration`. Everything that
/// would make `Duration::from_secs_f64` panic (NaN, negative,
/// overflow) comes back as an error message instead.
pub fn positive_secs(raw: &str) -> Result<Duration, String> {
    let secs: f64 = raw
        .parse()
        .map_err(|_| format!("`{raw}` is not a number"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "`{raw}` must be a positive finite number of seconds"
        ));
    }
    Duration::try_from_secs_f64(secs).map_err(|e| format!("`{raw}`: {e}"))
}

/// Like [`positive_secs`] but allows `0` (conventionally "disabled").
pub fn nonneg_secs(raw: &str) -> Result<Duration, String> {
    let secs: f64 = raw
        .parse()
        .map_err(|_| format!("`{raw}` is not a number"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "`{raw}` must be a non-negative finite number of seconds"
        ));
    }
    Duration::try_from_secs_f64(secs).map_err(|e| format!("`{raw}`: {e}"))
}

/// Whether `usage` names the flag `--key`.
fn names_flag(usage: &str, key: &str) -> bool {
    usage
        .split(|c: char| c.is_whitespace() || matches!(c, '[' | ']' | '|'))
        .any(|word| word.strip_prefix("--") == Some(key))
}

/// Parsed `--key value` flags (and bare `--switch`es, stored as empty
/// strings).
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    usage: &'static str,
}

impl Flags {
    /// Parse the process arguments. `switches` lists flags that take no
    /// value. Exits with `usage` on malformed input, on a flag `usage`
    /// does not name, or on `--help`.
    pub fn parse(usage: &'static str, switches: &[&str]) -> Self {
        let mut values = HashMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                Self::die(usage, &format!("unexpected argument {arg}"));
            };
            if key == "help" {
                println!("usage: {usage}");
                std::process::exit(0);
            }
            if !names_flag(usage, key) {
                Self::die(usage, &format!("unknown flag --{key}"));
            }
            if switches.contains(&key) {
                values.insert(key.to_string(), String::new());
            } else {
                let Some(v) = args.next() else {
                    Self::die(usage, &format!("--{key} needs a value"));
                };
                values.insert(key.to_string(), v);
            }
        }
        Self { values, usage }
    }

    fn die(usage: &str, msg: &str) -> ! {
        eprintln!("error: {msg}\nusage: {usage}");
        std::process::exit(2);
    }

    /// Whether a bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// A required value, parsed.
    pub fn req<T: std::str::FromStr>(&self, key: &str) -> T {
        match self.values.get(key).map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(_)) => Self::die(self.usage, &format!("--{key}: cannot parse value")),
            None => Self::die(self.usage, &format!("--{key} is required")),
        }
    }

    /// An optional value with a default.
    pub fn opt<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.values.get(key).map(|v| v.parse::<T>()) {
            Some(Ok(v)) => v,
            Some(Err(_)) => Self::die(self.usage, &format!("--{key}: cannot parse value")),
            None => default,
        }
    }

    /// An optional string value.
    pub fn opt_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required duration flag in fractional seconds, validated by
    /// [`positive_secs`] (a `--secs nan` is a usage error, not a panic
    /// further down the stack).
    pub fn req_secs(&self, key: &str) -> Duration {
        match self.values.get(key) {
            Some(v) => match positive_secs(v) {
                Ok(d) => d,
                Err(e) => Self::die(self.usage, &format!("--{key}: {e}")),
            },
            None => Self::die(self.usage, &format!("--{key} is required")),
        }
    }

    /// An optional duration flag in fractional seconds, validated by
    /// [`nonneg_secs`]; zero conventionally means "disabled".
    pub fn opt_secs(&self, key: &str, default: Duration) -> Duration {
        match self.values.get(key) {
            Some(v) => match nonneg_secs(v) {
                Ok(d) => d,
                Err(e) => Self::die(self.usage, &format!("--{key}: {e}")),
            },
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_secs_accepts_fractions_and_rejects_panic_inputs() {
        assert_eq!(positive_secs("0.005").unwrap(), Duration::from_millis(5));
        assert_eq!(positive_secs("60").unwrap(), Duration::from_secs(60));
        for bad in ["nan", "-1", "0", "-0.0", "inf", "-inf", "1e300", "week"] {
            assert!(positive_secs(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn only_flags_the_usage_names_are_known() {
        let usage = "tool --bind ADDR [--secs S] [--io a|b] [--quiet]";
        for key in ["bind", "secs", "io", "quiet"] {
            assert!(names_flag(usage, key), "--{key}");
        }
        for key in ["bin", "sec", "session", "a", "ADDR", ""] {
            assert!(!names_flag(usage, key), "--{key}");
        }
    }

    #[test]
    fn nonneg_secs_allows_zero_only() {
        assert_eq!(nonneg_secs("0").unwrap(), Duration::ZERO);
        assert_eq!(nonneg_secs("30").unwrap(), Duration::from_secs(30));
        for bad in ["nan", "-1", "-0.5", "inf", "1e300", "soon"] {
            assert!(nonneg_secs(bad).is_err(), "`{bad}` must be rejected");
        }
    }
}
