//! Minimal `--key value` argument parsing (no external dependencies).

use oociso_volume::Dims3;
use std::collections::HashMap;

/// Parsed `--key value` options.
pub struct Options {
    map: HashMap<String, String>,
    flags: Vec<String>,
    /// The option names the command reads, space-separated; nothing else
    /// parses.
    known: &'static str,
}

impl Options {
    /// Parse `--key value` pairs and bare `--flag`s, rejecting any option
    /// not in `known` — a typo must fail loudly, not be silently ignored.
    pub fn parse(argv: &[String], known: &'static str) -> Result<Options, String> {
        let mut map = HashMap::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if !known.split_whitespace().any(|k| k == key) {
                return Err(format!("unknown option --{key}"));
            }
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    map.insert(key.to_string(), it.next().unwrap().clone());
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Options { map, flags, known })
    }

    /// A command reading an option it never declared — one that
    /// [`Options::parse`] would always reject — is a bug that fails on the
    /// first run of that code path, not a silently dead option.
    fn declared(&self, key: &str) {
        assert!(
            self.known.split_whitespace().any(|k| k == key),
            "option --{key} is read but not declared"
        );
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.declared(key);
        self.map
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.declared(key);
        self.map.get(key).map(String::as_str)
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.declared(key);
        self.flags.iter().any(|f| f == key)
    }

    /// Optional parsed numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.declared(key);
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Optional parsed numeric option without a default — `None` when absent.
    pub fn opt_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.declared(key);
        match self.map.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Dimensions option `NXxNYxNZ`.
    pub fn dims(&self, key: &str, default: Dims3) -> Result<Dims3, String> {
        self.declared(key);
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => {
                let parts: Vec<usize> = v
                    .split(['x', 'X'])
                    .map(|p| p.parse().map_err(|_| format!("--{key}: bad dims `{v}`")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 3 {
                    return Err(format!("--{key}: expected NXxNYxNZ, got `{v}`"));
                }
                Ok(Dims3::new(parts[0], parts[1], parts[2]))
            }
        }
    }

    /// Tile layout option `CxR`.
    pub fn tiles(&self, key: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
        self.declared(key);
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => {
                let parts: Vec<usize> = v
                    .split(['x', 'X'])
                    .map(|p| p.parse().map_err(|_| format!("--{key}: bad tiles `{v}`")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 2 {
                    return Err(format!("--{key}: expected CxR, got `{v}`"));
                }
                Ok((parts[0], parts[1]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &str = "db topology iso nodes slots dims other tiles";

    fn opts(args: &[&str]) -> Options {
        Options::parse(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            KNOWN,
        )
        .unwrap()
    }

    #[test]
    fn key_value_and_flags() {
        let o = opts(&["--db", "x", "--topology", "--iso", "190"]);
        assert_eq!(o.require("db").unwrap(), "x");
        assert!(o.flag("topology"));
        assert_eq!(o.num::<f32>("iso", 0.0).unwrap(), 190.0);
        assert_eq!(o.num::<usize>("nodes", 4).unwrap(), 4);
        assert_eq!(o.opt_num::<f32>("iso").unwrap(), Some(190.0));
        assert_eq!(o.opt_num::<u32>("slots").unwrap(), None);
        assert!(o.opt_num::<u32>("db").is_err());
    }

    #[test]
    fn dims_parsing() {
        let o = opts(&["--dims", "64x64x60"]);
        assert_eq!(
            o.dims("dims", Dims3::cube(8)).unwrap(),
            Dims3::new(64, 64, 60)
        );
        assert_eq!(o.dims("other", Dims3::cube(8)).unwrap(), Dims3::cube(8));
    }

    #[test]
    fn missing_required_reports_key() {
        let o = opts(&[]);
        assert!(o.require("db").unwrap_err().contains("--db"));
    }

    #[test]
    fn positional_rejected() {
        let argv = vec!["stray".to_string()];
        assert!(Options::parse(&argv, KNOWN).is_err());
    }

    #[test]
    fn tiles_parsing() {
        let o = opts(&["--tiles", "2x2"]);
        assert_eq!(o.tiles("tiles", (1, 1)).unwrap(), (2, 2));
    }
}
