//! Thin dispatcher for the `cqa` command-line tool; the command logic
//! lives in the library so it can be tested.

use cqa_cli::fleet::cmd_fleet;
use cqa_cli::server_cli::{cmd_client, cmd_serve};
use cqa_cli::{
    cmd_batch, cmd_certain, cmd_classify, cmd_falsify, cmd_gadget, cmd_generate, cmd_solve,
    cmd_update, load_db_file, take_route_flag, take_stats_flag, take_threads_flag, usage, CliError,
    CmdOut,
};
use std::process::ExitCode;

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError {
        message: format!("cannot read {path}: {e}"),
        code: 2,
    })
}

fn run() -> Result<CmdOut, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let str_args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (positional, threads) = take_threads_flag(&str_args)?;
    let (positional, route) = take_route_flag(&positional)?;
    let (positional, want_stats) = take_stats_flag(&positional);
    // Flags that a command would silently ignore are rejected instead:
    // --threads applies to the solver/generator commands, --route to the
    // engine-backed `certain`/`batch`/`update`, --stats to the solver
    // commands.
    if threads.is_some()
        && !matches!(
            positional.first(),
            Some(&"certain")
                | Some(&"falsify")
                | Some(&"generate")
                | Some(&"batch")
                | Some(&"update")
                | Some(&"serve")
        )
    {
        return Err(CliError {
            message:
                "--threads only applies to `certain`, `falsify`, `batch`, `update`, `generate` and `serve`"
                    .to_string(),
            code: 2,
        });
    }
    if route.is_some()
        && !matches!(
            positional.first(),
            Some(&"certain") | Some(&"batch") | Some(&"update")
        )
    {
        return Err(CliError {
            message: "--route only applies to `certain`, `batch` and `update`".to_string(),
            code: 2,
        });
    }
    if want_stats
        && !matches!(
            positional.first(),
            Some(&"certain") | Some(&"falsify") | Some(&"batch") | Some(&"update") | Some(&"serve")
        )
    {
        return Err(CliError {
            message: "--stats only applies to `certain`, `falsify`, `batch`, `update` and `serve`"
                .to_string(),
            code: 2,
        });
    }
    match positional.as_slice() {
        ["classify", q] => cmd_classify(q).map(CmdOut::from),
        // Fact files are stream-loaded line-at-a-time (see cqa_cli::dbfmt),
        // so million-line files never sit in memory as text.
        ["certain", q, file] => cmd_certain(q, &load_db_file(file)?, threads, route, want_stats),
        ["batch", db_file, queries_file] => cmd_batch(
            &load_db_file(db_file)?,
            &read(queries_file)?,
            threads,
            route,
            want_stats,
        )
        .map_err(|e| CliError {
            message: format!("{queries_file}: {}", e.message),
            code: e.code,
        }),
        ["update", rest @ ..] => {
            // `--recompute` switches to the from-scratch oracle mode;
            // the CI delta smoke diffs its stdout against the default
            // incremental mode.
            let mut recompute = false;
            let mut files = Vec::new();
            for &a in rest {
                match a {
                    "--recompute" => recompute = true,
                    other => files.push(other),
                }
            }
            let [db_file, deltas_file, queries_file] = files.as_slice() else {
                return Err(CliError {
                    message: "update needs <db-file> <deltas-file> <queries-file>".to_string(),
                    code: 2,
                });
            };
            cmd_update(
                load_db_file(db_file)?,
                &read(deltas_file)?,
                &read(queries_file)?,
                threads,
                route,
                recompute,
                want_stats,
            )
        }
        ["falsify", q, file] => cmd_falsify(q, &load_db_file(file)?, u64::MAX, threads, want_stats),
        ["falsify", q, file, budget] => {
            let b: u64 = budget.parse().map_err(|_| CliError {
                message: format!("bad budget {budget:?}"),
                code: 2,
            })?;
            cmd_falsify(q, &load_db_file(file)?, b, threads, want_stats)
        }
        ["generate", rest @ ..] => cmd_generate(rest, threads).map(CmdOut::from),
        ["fleet", rest @ ..] => cmd_fleet(rest),
        ["serve", rest @ ..] => cmd_serve(rest, threads, want_stats),
        ["client", rest @ ..] => cmd_client(rest),
        ["gadget", q, file] => cmd_gadget(q, &read(file)?).map(CmdOut::from),
        ["solve", file] => cmd_solve(&read(file)?).map(CmdOut::from),
        _ => Err(CliError {
            message: usage().to_string(),
            code: 1,
        }),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{}", out.stdout);
            eprint!("{}", out.stderr);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.code)
        }
    }
}
