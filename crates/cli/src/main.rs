//! Thin dispatcher for the `cqa` command-line tool; the command logic
//! lives in the library so it can be tested. Each command's flags follow
//! the command word and are read by the one [`Flags`] parser.

use cqa_cli::fleet::cmd_fleet;
use cqa_cli::server_cli::{cmd_client, cmd_serve};
use cqa_cli::{
    cmd_batch, cmd_certain, cmd_classify, cmd_falsify, cmd_gadget, cmd_generate, cmd_solve,
    cmd_update, load_db_file, read_file, route_flag, threads_flag, usage, CliError, CmdOut, Flags,
};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn usage_error() -> CliError {
    CliError {
        message: usage().to_string(),
        code: 1,
    }
}

fn run(args: &[&str]) -> Result<CmdOut, CliError> {
    let [command, rest @ ..] = args else {
        return Err(usage_error());
    };
    let mut flags = Flags::new(command, rest);
    match *command {
        "classify" => match flags.positionals()?[..] {
            [q] => cmd_classify(q).map(CmdOut::from),
            _ => Err(usage_error()),
        },
        // Fact files are stream-loaded line-at-a-time (see cqa_cli::dbfmt),
        // so million-line files never sit in memory as text.
        "certain" => {
            let threads = threads_flag(&mut flags)?;
            let route = route_flag(&mut flags)?;
            let want_stats = flags.switch("--stats");
            match flags.positionals()?[..] {
                [q, file] => cmd_certain(q, &load_db_file(file)?, threads, route, want_stats),
                _ => Err(usage_error()),
            }
        }
        "batch" => {
            let threads = threads_flag(&mut flags)?;
            let route = route_flag(&mut flags)?;
            let want_stats = flags.switch("--stats");
            let [db_file, queries_file] = flags.positionals()?[..] else {
                return Err(usage_error());
            };
            cmd_batch(
                &load_db_file(db_file)?,
                &read_file(queries_file)?,
                threads,
                route,
                want_stats,
            )
            .map_err(|e| CliError {
                message: format!("{queries_file}: {}", e.message),
                code: e.code,
            })
        }
        "update" => {
            let threads = threads_flag(&mut flags)?;
            // `--recompute` switches to the from-scratch oracle mode;
            // the CI delta smoke diffs its stdout against the default
            // incremental mode.
            let recompute = flags.switch("--recompute");
            let want_stats = flags.switch("--stats");
            let [db_file, deltas_file, queries_file] = flags.positionals()?[..] else {
                return Err(CliError::new(
                    "update needs <db-file> <deltas-file> <queries-file>",
                ));
            };
            cmd_update(
                load_db_file(db_file)?,
                &read_file(deltas_file)?,
                &read_file(queries_file)?,
                threads,
                recompute,
                want_stats,
            )
        }
        "falsify" => {
            let want_stats = flags.switch("--stats");
            let (q, file, budget) = match flags.positionals()?[..] {
                [q, file] => (q, file, u64::MAX),
                [q, file, budget] => (
                    q,
                    file,
                    budget
                        .parse()
                        .map_err(|_| CliError::new(format!("bad budget {budget:?}")))?,
                ),
                _ => return Err(usage_error()),
            };
            cmd_falsify(q, &load_db_file(file)?, budget, want_stats)
        }
        "generate" => cmd_generate(rest).map(CmdOut::from),
        "fleet" => cmd_fleet(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "gadget" => match flags.positionals()?[..] {
            [q, file] => cmd_gadget(q, &read_file(file)?).map(CmdOut::from),
            _ => Err(usage_error()),
        },
        "solve" => match flags.positionals()?[..] {
            [file] => cmd_solve(&read_file(file)?).map(CmdOut::from),
            _ => Err(usage_error()),
        },
        _ => Err(usage_error()),
    }
}

/// Write a command's output to stdout. A reader that exits early
/// (`cqa batch … | head`) closes the pipe, which ends the output quietly:
/// the command keeps its own exit status. Any other write error fails
/// the command.
fn write_stdout(text: &str) -> Result<(), CliError> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(CliError::new(format!("writing stdout: {e}")))
        }
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let outcome = run(&args).and_then(|out| {
        write_stdout(&out.stdout)?;
        eprint!("{}", out.stderr);
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.code)
        }
    }
}
