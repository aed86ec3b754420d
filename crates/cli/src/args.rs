//! A small dependency-free argument parser for the CLI.
//!
//! Supports `--key value`, `--key=value` and bare flags, with typed
//! accessors that produce readable errors. Kept deliberately minimal — the
//! CLI has a handful of options per subcommand and the workspace's
//! dependency policy favors no external parser.

use std::collections::BTreeMap;
use std::fmt;

/// What class of failure a [`ParseArgsError`] describes. Usage mistakes
/// and bad option values are distinguishable so callers (and tests) don't
/// have to pattern-match message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorKind {
    /// Malformed invocation: unknown subcommand, missing required option.
    #[default]
    Usage,
    /// An option was present but its value failed to parse or validate
    /// (e.g. `--log-level shouty`).
    InvalidValue,
    /// A pipeline stage failed while running (I/O, simulation, training).
    Stage,
}

/// Error produced while parsing arguments or running a subcommand.
///
/// Command implementations tag errors with the pipeline stage that failed
/// (`datagen`, `train`, ...), so `error: [datagen] failed to write dataset
/// '...'` names the culprit before the binary exits nonzero. [`ErrorKind`]
/// distinguishes usage mistakes from invalid option values and runtime
/// stage failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError {
    message: String,
    stage: Option<&'static str>,
    kind: ErrorKind,
}

impl ParseArgsError {
    pub(crate) fn new(message: impl Into<String>) -> ParseArgsError {
        ParseArgsError { message: message.into(), stage: None, kind: ErrorKind::Usage }
    }

    /// An error attributed to a named pipeline stage.
    pub(crate) fn in_stage(stage: &'static str, message: impl Into<String>) -> ParseArgsError {
        ParseArgsError { message: message.into(), stage: Some(stage), kind: ErrorKind::Stage }
    }

    /// A typed rejection of one option's value: names the option, the
    /// offending input, and what would have been accepted.
    pub(crate) fn invalid_value(option: &str, got: &str, expected: &str) -> ParseArgsError {
        ParseArgsError {
            message: format!("invalid value '{got}' for --{option} (expected {expected})"),
            stage: None,
            kind: ErrorKind::InvalidValue,
        }
    }

    /// The pipeline stage this error is attributed to, if any.
    pub fn stage(&self) -> Option<&'static str> {
        self.stage
    }

    /// The class of failure.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(stage) = self.stage {
            write!(f, "[{stage}] ")?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseArgsError {}

/// Parsed command-line arguments: a subcommand, positional arguments and
/// `--key value` options.
///
/// # Examples
///
/// ```
/// use ssmdvfs_cli::Args;
///
/// let args = Args::parse(["simulate", "--benchmark", "lbm", "--preset=0.1", "--quiet"])?;
/// assert_eq!(args.command(), "simulate");
/// assert_eq!(args.get("benchmark"), Some("lbm"));
/// assert_eq!(args.get_f64("preset", 0.2)?, 0.1);
/// assert!(args.flag("quiet"));
/// # Ok::<(), ssmdvfs_cli::ParseArgsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error if no subcommand is present or an option is
    /// malformed.
    pub fn parse<I, S>(args: I) -> Result<Args, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into).peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseArgsError::new("missing subcommand; try 'ssmdvfs help'"))?;
        if command.starts_with('-') {
            return Err(ParseArgsError::new(format!(
                "expected a subcommand, got option '{command}'; try 'ssmdvfs help'"
            )));
        }
        let mut positional = Vec::new();
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            if let Some(stripped) = arg.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err(ParseArgsError::new("bare '--' is not supported"));
                }
                if let Some((key, value)) = stripped.split_once('=') {
                    options.insert(key.to_string(), value.to_string());
                } else if iter.peek().is_some_and(|next| !next.starts_with("--")) {
                    let value = iter.next().expect("peeked Some");
                    options.insert(stripped.to_string(), value);
                } else {
                    flags.push(stripped.to_string());
                }
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { command, positional, options, flags })
    }

    /// The subcommand name.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Positional arguments after the subcommand.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Looks up an option's raw value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Returns `true` if a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// An option's raw value, rejecting `--key` passed bare: a
    /// value-taking option with nothing after it must not silently fall
    /// back to its default.
    pub(crate) fn value(&self, key: &str, expected: &str) -> Result<Option<&str>, ParseArgsError> {
        if self.flag(key) {
            return Err(ParseArgsError::invalid_value(key, "", expected));
        }
        Ok(self.get(key))
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing option, or an invalid-value
    /// error if it was passed without a value.
    pub fn require(&self, key: &str) -> Result<&str, ParseArgsError> {
        self.value(key, "a value")?
            .ok_or_else(|| ParseArgsError::new(format!("missing required option --{key}")))
    }

    /// A float option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse or is missing after
    /// the option.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ParseArgsError> {
        match self.value(key, "a number")? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError::new(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    /// An integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse or is missing after
    /// the option.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ParseArgsError> {
        match self.value(key, "an integer")? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError::new(format!("--{key} expects an integer, got '{v}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_options_flags_and_positionals() {
        let a = Args::parse(["run", "pos1", "pos2", "--x", "1", "--y=2", "--verbose"]).unwrap();
        assert_eq!(a.command(), "run");
        assert_eq!(a.positional(), ["pos1", "pos2"]);
        assert_eq!(a.get("x"), Some("1"));
        assert_eq!(a.get("y"), Some("2"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn typed_accessors() {
        let a = Args::parse(["c", "--f", "0.25", "--n", "7"]).unwrap();
        assert_eq!(a.get_f64("f", 0.0).unwrap(), 0.25);
        assert_eq!(a.get_usize("n", 0).unwrap(), 7);
        assert_eq!(a.get_f64("missing", 1.5).unwrap(), 1.5);
        assert!(a.get_f64("n", 0.0).is_ok());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Args::parse(Vec::<String>::new()).unwrap_err().to_string().contains("subcommand"));
        assert!(Args::parse(["--oops"]).unwrap_err().to_string().contains("subcommand"));
        let a = Args::parse(["c", "--n", "xyz"]).unwrap();
        assert!(a.get_usize("n", 0).unwrap_err().to_string().contains("integer"));
        assert!(a.require("missing").unwrap_err().to_string().contains("--missing"));
    }

    #[test]
    fn trailing_option_without_value_is_a_flag() {
        let a = Args::parse(["c", "--quiet"]).unwrap();
        assert!(a.flag("quiet"));
        assert_eq!(a.get("quiet"), None);
    }

    #[test]
    fn value_options_passed_bare_are_invalid_not_defaulted() {
        let a = Args::parse(["train", "--jobs", "--out", "m.json", "--preset"]).unwrap();
        assert_eq!(a.get("out"), Some("m.json"));
        let jobs = a.get_usize("jobs", 0).unwrap_err();
        assert_eq!(jobs.kind(), ErrorKind::InvalidValue);
        assert!(jobs.to_string().contains("''") && jobs.to_string().contains("--jobs"), "{jobs}");
        assert_eq!(a.get_f64("preset", 0.1).unwrap_err().kind(), ErrorKind::InvalidValue);
        assert_eq!(a.require("jobs").unwrap_err().kind(), ErrorKind::InvalidValue);
        // Absent options still take their default or report as missing.
        assert_eq!(a.get_usize("epochs", 3).unwrap(), 3);
        assert_eq!(a.require("dataset").unwrap_err().kind(), ErrorKind::Usage);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn equals_form_with_empty_value() {
        let a = Args::parse(["c", "--name="]).unwrap();
        assert_eq!(a.get("name"), Some(""));
    }

    #[test]
    fn later_options_override_earlier() {
        let a = Args::parse(["c", "--n", "1", "--n", "2"]).unwrap();
        assert_eq!(a.get("n"), Some("2"));
    }

    #[test]
    fn bare_double_dash_is_rejected() {
        assert!(Args::parse(["c", "--"]).unwrap_err().to_string().contains("--"));
    }

    #[test]
    fn negative_numbers_are_not_swallowed_as_options() {
        // `-1` does not start with `--`, so it is a value.
        let a = Args::parse(["c", "--delta", "-1.5"]).unwrap();
        assert_eq!(a.get_f64("delta", 0.0).unwrap(), -1.5);
    }
}
