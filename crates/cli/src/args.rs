//! Minimal, dependency-free argument parsing for the `ulm` binary.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: subcommand, `--key value` options and `--flag`
/// switches.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// The nested action (second positional), only for commands that take
    /// one (`ulm cache export|import|info`).
    pub subcommand: Option<String>,
    options: HashMap<String, String>,
    /// Every `--key value` occurrence in order, for options that may
    /// repeat (`ulm whatif --set … --set …`).
    occurrences: Vec<(String, String)>,
    flags: Vec<String>,
    /// Value options given with no value, last or before the next
    /// option, in order (`--port --verbose`).
    valueless: Vec<String>,
}

/// The most worker threads `--threads` (dse) or `--parallelism`
/// (batch/serve) may ask for; a larger count is refused before any thread
/// starts.
pub const MAX_THREADS: u64 = 256;

/// Errors from argument handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// `--key` given without a value.
    MissingValue(String),
    /// An option's value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// An unexpected positional argument.
    UnexpectedPositional(String),
    /// An option or flag the command does not take.
    UnknownOption {
        /// The subcommand.
        command: String,
        /// The option name, without its dashes.
        key: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand; try `ulm help`"),
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "option --{key}={value} is not a valid {expected}"),
            ArgError::UnexpectedPositional(p) => {
                write!(f, "unexpected positional argument `{p}`")
            }
            ArgError::UnknownOption { command, key } => {
                write!(f, "`ulm {command}` has no option --{key}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl From<ArgError> for ulm::error::UlmError {
    fn from(e: ArgError) -> Self {
        ulm::error::UlmError::config(e.to_string())
    }
}

/// Known boolean flags (everything else with `--` expects a value).
const FLAGS: &[&str] = &[
    "json",
    "all",
    "bw-unaware",
    "overlap",
    "help",
    "stats",
    "no-timing",
    "shutdown-on-stdin-close",
    "verify",
];

/// Commands that take a second positional argument (a nested action).
const WITH_SUBCOMMAND: &[&str] = &["cache"];

impl Args {
    /// Parses `argv[1..]`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a missing command or extra positional
    /// arguments; a value-less option is reported by
    /// [`check_known`](Self::check_known).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut subcommand = None;
        let mut options = HashMap::new();
        let mut occurrences = Vec::new();
        let mut flags = Vec::new();
        let mut valueless = Vec::new();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                // `--key=value` or `--key value` or bare flag.
                if let Some((k, v)) = key.split_once('=') {
                    options.insert(k.to_string(), v.to_string());
                    occurrences.push((k.to_string(), v.to_string()));
                } else if FLAGS.contains(&key) {
                    flags.push(key.to_string());
                } else if let Some(v) = it.next_if(|next| !next.starts_with("--")) {
                    options.insert(key.to_string(), v.clone());
                    occurrences.push((key.to_string(), v));
                } else {
                    // The key is last, or the next token is an option, not
                    // its value: `check_known` names the key if it is
                    // unknown and reports its missing value otherwise.
                    valueless.push(key.to_string());
                }
            } else if WITH_SUBCOMMAND.contains(&command.as_str()) && subcommand.is_none() {
                subcommand = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(Self {
            command,
            subcommand,
            options,
            occurrences,
            flags,
            valueless,
        })
    }

    /// Rejects the first option or flag not in `accepted`, so a
    /// misspelled or removed option fails instead of running with
    /// defaults; then the first known value option given without a value.
    pub fn check_known(&self, accepted: &[&str]) -> Result<(), ArgError> {
        let mut given = self
            .occurrences
            .iter()
            .map(|(k, _)| k)
            .chain(&self.flags)
            .chain(&self.valueless);
        if let Some(key) = given.find(|k| !accepted.contains(&k.as_str())) {
            return Err(ArgError::UnknownOption {
                command: self.command.clone(),
                key: key.clone(),
            });
        }
        match self.valueless.first() {
            Some(key) => Err(ArgError::MissingValue(key.clone())),
            None => Ok(()),
        }
    }

    /// True if `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Every value given for `--key`, in command-line order (for options
    /// that may repeat, like `--set`).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.occurrences
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Parses `--key` as `u64`, with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.into(),
                value: v.into(),
                expected: "integer".into(),
            }),
        }
    }

    /// Parses the worker-thread count `--key`: absent or 0 is `None` (the
    /// command's default), and a count above [`MAX_THREADS`] is an error.
    pub fn threads(&self, key: &str) -> Result<Option<usize>, ArgError> {
        match self.u64_or(key, 0)? {
            0 => Ok(None),
            n if n <= MAX_THREADS => Ok(Some(n as usize)),
            n => Err(ArgError::BadValue {
                key: key.into(),
                value: n.to_string(),
                expected: format!("thread count (at most {MAX_THREADS})"),
            }),
        }
    }

    /// Parses `--key` as a comma-separated `u64` list, with a default.
    pub fn u64_list_or(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, ArgError> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim().parse().map_err(|_| ArgError::BadValue {
                        key: key.into(),
                        value: v.into(),
                        expected: "comma-separated integers".into(),
                    })
                })
                .collect(),
        }
    }

    /// Parses `--layer BxKxC` into the three dims.
    pub fn layer_dims(&self, default: (u64, u64, u64)) -> Result<(u64, u64, u64), ArgError> {
        match self.get("layer") {
            None => Ok(default),
            Some(v) => {
                let parts: Vec<&str> = v.split('x').collect();
                let bad = || ArgError::BadValue {
                    key: "layer".into(),
                    value: v.into(),
                    expected: "BxKxC with positive dims (e.g. 64x96x640)".into(),
                };
                if parts.len() != 3 {
                    return Err(bad());
                }
                let b = parts[0].parse().map_err(|_| bad())?;
                let k = parts[1].parse().map_err(|_| bad())?;
                let c = parts[2].parse().map_err(|_| bad())?;
                if b == 0 || k == 0 || c == 0 {
                    return Err(bad());
                }
                Ok((b, k, c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_command_line_round_trips() {
        let a = parse(&["evaluate", "--layer", "64x96x640", "--gb-bw=256", "--json"]).unwrap();
        assert_eq!(a.command, "evaluate");
        assert_eq!(a.layer_dims((1, 1, 1)).unwrap(), (64, 96, 640));
        assert_eq!(a.u64_or("gb-bw", 128).unwrap(), 256);
        assert!(a.flag("json"));
        assert!(!a.flag("all"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["search"]).unwrap();
        assert_eq!(a.u64_or("gb-bw", 128).unwrap(), 128);
        assert_eq!(a.layer_dims((8, 8, 8)).unwrap(), (8, 8, 8));
        assert_eq!(a.u64_list_or("sides", &[16, 32]).unwrap(), vec![16, 32]);
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse(&["x", "--gb-bw"]).unwrap().check_known(&["gb-bw"]),
            Err(ArgError::MissingValue("gb-bw".into()))
        );
        assert!(matches!(
            parse(&["x", "--layer", "64x96"])
                .unwrap()
                .layer_dims((1, 1, 1)),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&["x", "stray"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn thread_counts_are_capped() {
        let threads = |words: &[&str]| parse(words).unwrap().threads("threads");
        assert_eq!(threads(&["dse"]), Ok(None));
        assert_eq!(threads(&["dse", "--threads", "0"]), Ok(None));
        assert_eq!(threads(&["dse", "--threads", "256"]), Ok(Some(256)));
        assert!(matches!(
            threads(&["dse", "--threads", "257"]),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_options_and_flags_are_named() {
        let a = parse(&["search", "--arch", "toy", "--json", "--bogus=3"]).unwrap();
        assert_eq!(
            a.check_known(&["arch", "json"]),
            Err(ArgError::UnknownOption {
                command: "search".into(),
                key: "bogus".into()
            })
        );
        assert!(matches!(
            a.check_known(&["arch", "bogus"]),
            Err(ArgError::UnknownOption { key, .. }) if key == "json"
        ));
        assert_eq!(a.check_known(&["arch", "json", "bogus"]), Ok(()));
    }

    #[test]
    fn an_option_is_never_taken_as_a_value() {
        let a = parse(&["serve", "--reactor", "--port", "0"]).unwrap();
        assert_eq!(a.get("port"), Some("0"));
        assert_eq!(
            a.check_known(&["port"]),
            Err(ArgError::UnknownOption {
                command: "serve".into(),
                key: "reactor".into()
            })
        );
        // So is an unknown key given last.
        assert_eq!(
            parse(&["serve", "--port", "0", "--reactor"])
                .unwrap()
                .check_known(&["port"]),
            Err(ArgError::UnknownOption {
                command: "serve".into(),
                key: "reactor".into()
            })
        );
        // A known value option followed by another option has no value.
        let a = parse(&["serve", "--port", "--no-timing"]).unwrap();
        assert!(a.flag("no-timing"));
        assert_eq!(
            a.check_known(&["port", "no-timing"]),
            Err(ArgError::MissingValue("port".into()))
        );
    }

    #[test]
    fn repeated_options_keep_every_occurrence() {
        let a = parse(&[
            "whatif",
            "--set",
            "mem.GB.bw=2x",
            "--set=mem.W-LB.size=2x",
            "--verify",
        ])
        .unwrap();
        assert_eq!(a.get_all("set"), vec!["mem.GB.bw=2x", "mem.W-LB.size=2x"]);
        // `get` keeps last-wins semantics for single-valued options.
        assert_eq!(a.get("set"), Some("mem.W-LB.size=2x"));
        assert!(a.flag("verify"));
        assert!(a.get_all("missing").is_empty());
    }

    #[test]
    fn cache_takes_one_subcommand() {
        let a = parse(&[
            "cache",
            "export",
            "--cache-dir",
            "/tmp/x",
            "--out",
            "snap.ulmlog",
        ])
        .unwrap();
        assert_eq!(a.command, "cache");
        assert_eq!(a.subcommand.as_deref(), Some("export"));
        assert_eq!(a.get("cache-dir"), Some("/tmp/x"));
        // A second positional is still rejected, and other commands take
        // none at all.
        assert!(matches!(
            parse(&["cache", "export", "extra"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        assert!(matches!(
            parse(&["serve", "export"]).unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn serve_reactor_flags_parse() {
        let a = parse(&[
            "serve",
            "--no-timing",
            "--shutdown-on-stdin-close",
            "--idle-timeout-ms",
            "5000",
        ])
        .unwrap();
        assert!(a.flag("no-timing"));
        assert!(a.flag("shutdown-on-stdin-close"));
        assert_eq!(a.u64_or("idle-timeout-ms", 0).unwrap(), 5000);
    }

    #[test]
    fn list_parsing() {
        let a = parse(&["dse", "--sides", "16,32,64"]).unwrap();
        assert_eq!(a.u64_list_or("sides", &[]).unwrap(), vec![16, 32, 64]);
        let bad = parse(&["dse", "--sides", "16,x"]).unwrap();
        assert!(bad.u64_list_or("sides", &[]).is_err());
    }
}
