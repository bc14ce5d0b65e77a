//! `tdbms-server` — serve a database over TCP.
//!
//! ```text
//! tdbms-server DIR [--addr 127.0.0.1:4477]
//!              [--max-conns N] [--timeout-ms N] [--max-rows N]
//!              [--max-reply-bytes N] [--allow-copy]
//!              [--no-remote-shutdown]
//! tdbms-server --shutdown ADDR
//! ```
//!
//! `DIR` opens durably (write-ahead log, crash recovery), like every
//! file-backed database. Sessions group-commit: a write is
//! acknowledged once a log fsync covers it, and one fsync can cover
//! the commits of several sessions. The server
//! checkpoints every `CHECKPOINT_EVERY` (64) commits. A checkpoint
//! materializes and fsyncs the page files under the commit lock, and
//! the commit that makes one due waits for its log sync there too, so
//! a checkpoint on every commit (the library's default) would leave
//! nothing to batch: 8 write-only wire clients ran at under a quarter
//! of this cadence's rate (EXPERIMENTS.md).
//!
//! The server prints `listening on <addr>` once it has bound (an
//! `--addr` port of 0 picks an ephemeral port — scripts parse this
//! line). SIGINT/SIGTERM or a wire `Shutdown` request trigger a
//! graceful drain: in-flight queries are interrupted, connections are
//! joined, a checkpoint is taken, and the process exits 0 with a
//! database that audits clean. The exit line ends with the commit
//! queue's `commits=` and `fsyncs=`; more commits than fsyncs means
//! sessions shared syncs.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use tdbms_core::{CheckpointPolicy, Database, Engine};
use tdbms_net::{Client, Server, ServerConfig};

/// Commits between two checkpoints (see the module docs).
const CHECKPOINT_EVERY: u32 = 64;

static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// Install a handler for SIGINT/SIGTERM without a libc dependency.
/// `signal(2)` is in every libc we link against; the handler only
/// touches an atomic, which is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> *const ();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tdbms-server DIR [--addr HOST:PORT] \
         [--max-conns N] [--timeout-ms N] [--max-rows N] \
         [--max-reply-bytes N] [--allow-copy] [--no-remote-shutdown]\n\
         \x20      tdbms-server --shutdown HOST:PORT"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Client mode: ask a running server to shut down.
    if args.first().map(String::as_str) == Some("--shutdown") {
        let Some(addr) = args.get(1) else {
            return usage();
        };
        return match Client::connect(addr.as_str())
            .and_then(|mut c| c.shutdown_server())
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tdbms-server: shutdown failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut dir: Option<String> = None;
    let mut addr = String::from("127.0.0.1:4477");
    let mut cfg = ServerConfig::default();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let num = |name: &str, it: &mut dyn Iterator<Item = String>| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| {
                    eprintln!("tdbms-server: {name} needs a numeric value")
                })
        };
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a,
                None => return usage(),
            },
            "--allow-copy" => cfg.allow_copy = true,
            "--no-remote-shutdown" => cfg.allow_remote_shutdown = false,
            "--max-conns" => match num("--max-conns", &mut it) {
                Ok(n) => cfg.max_connections = n as usize,
                Err(()) => return usage(),
            },
            "--timeout-ms" => match num("--timeout-ms", &mut it) {
                Ok(n) => cfg.query_timeout = Duration::from_millis(n),
                Err(()) => return usage(),
            },
            "--max-rows" => match num("--max-rows", &mut it) {
                Ok(n) => cfg.max_rows = n,
                Err(()) => return usage(),
            },
            "--max-reply-bytes" => {
                match num("--max-reply-bytes", &mut it) {
                    Ok(n) => cfg.max_reply_bytes = n as usize,
                    Err(()) => return usage(),
                }
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') && dir.is_none() => {
                dir = Some(other.to_string())
            }
            other => {
                eprintln!("tdbms-server: unknown argument {other:?}");
                return usage();
            }
        }
    }

    let Some(dir) = dir else { return usage() };

    let mut db = match Database::open_durable(&dir) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("tdbms-server: cannot open {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(CHECKPOINT_EVERY));
    let engine = Engine::new(db);

    let server = match Server::bind(engine.clone(), &addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tdbms-server: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tdbms-server: cannot resolve address: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts parse this exact line to learn the ephemeral port.
    println!("listening on {bound}");
    use std::io::Write;
    let _ = std::io::stdout().flush();

    install_signal_handlers();
    let handle = server.handle();
    let watcher = std::thread::spawn(move || loop {
        if SIGNALED.load(Ordering::SeqCst) {
            handle.shutdown();
            break;
        }
        if handle.is_shutting_down() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let code = match server.run() {
        Ok(stats) => {
            let (commits, fsyncs) =
                engine.group_commit_stats().unwrap_or_default();
            println!(
                "shutdown: connections={} queries={} errors={} \
                 busy={} protocol_errors={} panics={} accept_errors={} \
                 commits={commits} fsyncs={fsyncs}",
                stats.connections,
                stats.queries,
                stats.query_errors,
                stats.busy_rejections,
                stats.protocol_errors,
                stats.panics_caught,
                stats.accept_errors
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tdbms-server: {e}");
            ExitCode::FAILURE
        }
    };
    let _ = watcher.join();
    code
}
