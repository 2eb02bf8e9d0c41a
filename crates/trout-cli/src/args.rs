//! Minimal `--flag value` option parsing (no third-party CLI dependency).

use trout_core::TroutError;

/// Parsed `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Options {
    pairs: Vec<(String, String)>,
}

fn config(msg: String) -> TroutError {
    TroutError::Config(msg)
}

impl Options {
    /// Parses `--flag value` tokens, accepting only the flags named in
    /// `known` (space-separated, without dashes). A flag directly followed
    /// by another flag (or by the end of the line) is a bare boolean
    /// switch, stored as `"true"` — e.g. `trout serve --stdin`.
    pub fn parse(argv: &[String], known: &str) -> Result<Options, TroutError> {
        let mut pairs = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(config(format!("expected a --flag, got `{flag}`")));
            };
            if !known.split_whitespace().any(|k| k == name) {
                let known: Vec<&str> = known.split_whitespace().collect();
                return Err(config(format!(
                    "unknown flag `{flag}` (this subcommand reads --{})",
                    known.join(", --")
                )));
            }
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            pairs.push((name.to_string(), value));
        }
        Ok(Options { pairs })
    }

    /// Raw string value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a flag is present at all.
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, TroutError> {
        self.get(name)
            .ok_or_else(|| config(format!("missing required flag --{name}")))
    }

    /// Optional parsed flag with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, TroutError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| config(format!("flag --{name}: cannot parse `{v}`"))),
        }
    }

    /// Required parsed flag.
    pub fn require_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, TroutError> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| config(format!("flag --{name}: cannot parse `{v}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &str = "jobs seed x stdin batch verbose trace";

    fn opts(s: &[&str]) -> Result<Options, TroutError> {
        Options::parse(&s.iter().map(|v| v.to_string()).collect::<Vec<_>>(), KNOWN)
    }

    #[test]
    fn parses_flag_pairs() {
        let o = opts(&["--jobs", "100", "--seed", "7"]).unwrap();
        assert_eq!(o.get("jobs"), Some("100"));
        assert_eq!(o.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.get_or::<u64>("absent", 3).unwrap(), 3);
        assert!(o.has("jobs") && !o.has("absent"));
    }

    #[test]
    fn last_occurrence_wins() {
        let o = opts(&["--x", "1", "--x", "2"]).unwrap();
        assert_eq!(o.get("x"), Some("2"));
    }

    #[test]
    fn rejects_bare_values() {
        assert!(opts(&["jobs", "100"]).is_err());
    }

    #[test]
    fn bare_flags_are_boolean_switches() {
        let o = opts(&["--stdin", "--batch", "16", "--verbose"]).unwrap();
        assert!(o.has("stdin"));
        assert_eq!(o.get("stdin"), Some("true"));
        assert_eq!(o.get_or::<usize>("batch", 0).unwrap(), 16);
        assert!(o.has("verbose"));
    }

    #[test]
    fn reports_parse_failures_as_config_errors() {
        let o = opts(&["--jobs", "many"]).unwrap();
        let err = o.get_or::<usize>("jobs", 1).unwrap_err();
        assert!(matches!(err, TroutError::Config(_)));
        assert!(err.to_string().contains("--jobs"), "{err}");
    }

    #[test]
    fn unknown_flags_are_config_errors_that_name_the_flag() {
        let err = opts(&["--jobs", "10", "--job", "3"]).unwrap_err();
        assert!(matches!(err, TroutError::Config(_)));
        assert!(err.to_string().contains("unknown flag `--job`"), "{err}");
        assert!(opts(&["--stdin", "--infer-f32"]).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let o = opts(&[]).unwrap();
        let err = o.require("trace").unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
    }
}
