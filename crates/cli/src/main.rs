//! `oociso` — command-line out-of-core isosurface extraction and rendering.
//!
//! ```text
//! oociso gen        --out rm.vol [--dims 256x256x240] [--step 250] [--seed N]
//! oociso preprocess --volume rm.vol --db rm_db [--nodes 4] [--metacell 9]
//! oociso info       --db rm_db
//! oociso extract    --db rm_db --iso 190 [--obj out.obj] [--topology]
//! oociso render     --db rm_db --iso 190 --out img.ppm [--size 1024] [--tiles 2x2]
//! oociso serve      --db rm_db [--addr 127.0.0.1:7077] [--cache-mb 256] [--port-file p]
//! oociso query      --addr HOST:PORT --iso 190 [--obj out.obj] [--stats]
//! ```
//!
//! The `gen` subcommand writes a Richtmyer–Meshkov proxy time step as a raw
//! volume file; `preprocess` builds the striped on-disk database out-of-core
//! (streaming the file in slabs); `extract`/`render` query it.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// A subcommand's entry point.
type Command = fn(&args::Options) -> Result<(), String>;

/// Every subcommand with the options it reads (space-separated);
/// [`args::Options::parse`] rejects anything else on its command line.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("gen", commands::gen, "out dims step seed field"),
    (
        "preprocess",
        commands::preprocess,
        "volume db nodes metacell",
    ),
    ("info", commands::info, "db"),
    (
        "extract",
        commands::extract,
        "db iso backend obj topology no-weld decimate",
    ),
    ("render", commands::render, "db iso out size tiles"),
    (
        "serve",
        commands::serve,
        "db addr cache-mb port-file backend lods slots max-conns degrade warm-delta \
         reactor-threads workers outbound-budget-mb read-timeout-ms idle-timeout-ms \
         slow-ms trace-buffer",
    ),
    (
        "query",
        commands::query,
        "addr iso stats lod backend obj progressive region frame size tiles timeout \
         retries trace",
    ),
    ("stats", commands::stats, "addr metrics"),
];

/// Resolve a command line to its subcommand and its parsed options.
fn parse(argv: &[String]) -> Result<(Command, args::Options), String> {
    let cmd = argv.first().map_or("", String::as_str);
    let Some(&(_, command, known)) = COMMANDS.iter().find(|(name, _, _)| *name == cmd) else {
        return Err(format!("unknown subcommand `{cmd}` (try `oociso help`)"));
    };
    Ok((command, args::Options::parse(&argv[1..], known)?))
}

fn run(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(_) => {
            let (command, opts) = parse(argv)?;
            command(&opts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn each_subcommand_rejects_options_it_does_not_read() {
        // the removed serving-core switches, and typos, fail by name...
        for (line, bad) in [
            ("serve --db d --threaded", "--threaded"),
            ("serve --db d --reactor", "--reactor"),
            ("query --addr a:1 --iso 1 --retry 2", "--retry"),
            // ...as does another subcommand's option
            ("stats --addr a:1 --retries 2", "--retries"),
        ] {
            let e = parse(&argv(line)).err();
            assert_eq!(e, Some(format!("unknown option {bad}")), "{line}");
        }
        assert!(parse(&argv("bogus")).is_err());
        // ...while a valid line still parses
        let (_, opts) = parse(&argv(
            "serve --db d --addr 127.0.0.1:0 --reactor-threads 4 --workers 2 --degrade",
        ))
        .unwrap();
        assert_eq!(opts.require("db").unwrap(), "d");
        assert_eq!(opts.num::<usize>("reactor-threads", 2).unwrap(), 4);
        assert!(opts.flag("degrade"));
        assert!(parse(&argv("query --addr a:1 --iso 1 --retries 2")).is_ok());
    }
}
