//! The tdbms terminal monitor: an interactive TQuel shell, in the spirit
//! of the Ingres terminal monitor the prototype's users typed at.
//!
//! ```sh
//! cargo run --bin tdbms                # in-memory session
//! cargo run --bin tdbms -- /path/dir   # file-backed (durable)
//! echo 'create static t (x = i4);' | cargo run --bin tdbms
//! ```
//!
//! Statements may span lines; they run when a line ends with `;` or `\g`
//! (Ingres-style "go"). Backslash commands:
//!
//! * `\l` — list relations
//! * `\d <rel>` — describe a relation
//! * `\stats` — the page accesses of this session's last statement,
//!   the pager's lifetime totals, and the engine's plan-cache hit/miss
//!   counters
//! * `\stats <rel>` — the figures the planner reads for one relation
//!   (versions, pages, directory levels, distinct keys, average
//!   version-chain length)
//! * `\now` — the transaction clock
//! * `\i <file>` — run statements from a file
//! * `\q` — quit
//!
//! A directory opens through the write-ahead log
//! (`Database::open_durable`): every statement is a durable transaction.
//! Environment knobs for file-backed sessions: `TDBMS_CHECKSUMS=1`
//! starts sidecar page checksums in a directory that has no sidecar yet
//! (a directory with one is always verified, with or without the
//! knob), and `TDBMS_CHECKPOINT=manual` / `every:<n>` overrides the
//! checkpoint policy (CI uses `manual` to leave a log tail for `check`
//! to replay); any other value is an error.
//!
//! The prompt and banner appear only when stdin is a terminal, so a
//! piped script's stdout holds results alone.

use std::io::{BufRead, IsTerminal, Write};
use tdbms::{CheckpointPolicy, Database, Granularity, QueryStats, Session};

/// Nested `\i` includes deeper than this abort with an error instead
/// of recursing forever (a file that includes itself would otherwise
/// hang the shell).
const MAX_INCLUDE_DEPTH: u32 = 16;

struct Shell {
    session: Session,
    buffer: String,
    /// What this session's last successful statement cost.
    last: QueryStats,
    /// Statements (and failed includes) that errored; scripted runs
    /// exit nonzero when this is nonzero.
    errors: u64,
    include_depth: u32,
}

impl Shell {
    fn describe(&self, name: &str) -> String {
        self.session
            .engine()
            .with_read(|db| match db.relation_meta(name) {
                Err(e) => format!("{e}"),
                Ok(m) => {
                    let mut s = String::new();
                    s.push_str(&format!(
                        "{} — {} {} relation, {} organization",
                        m.name, m.class, m.kind, m.method
                    ));
                    if let Some(k) = &m.key {
                        s.push_str(&format!(
                            " on {k} (fillfactor {}%)",
                            m.fillfactor
                        ));
                    }
                    s.push_str(&format!(
                        "\n  {} stored versions, {} pages ({} scannable), \
                     row width {}",
                        m.tuple_count,
                        m.total_pages,
                        m.scannable_pages,
                        m.row_width
                    ));
                    if let Ok(schema) = db.schema_of(name) {
                        s.push_str("\n  attributes:");
                        for (attr, domain) in schema.iter_all() {
                            s.push_str(&format!(" {attr}={domain}"));
                        }
                    }
                    if !m.index_names.is_empty() {
                        s.push_str(&format!(
                            "\n  indexes: {}",
                            m.index_names.join(", ")
                        ));
                    }
                    s
                }
            })
    }

    fn run_statement(&mut self, text: &str) {
        match self.session.execute(text) {
            Ok(out) => {
                if !out.columns.is_empty() {
                    print!("{}", out.to_table());
                }
                println!(
                    "({} tuple(s), {} input / {} output pages)",
                    out.affected,
                    out.stats.input_pages,
                    out.stats.output_pages
                );
                self.last = out.stats;
            }
            Err(e) => {
                self.errors += 1;
                println!("error: {e}");
            }
        }
    }

    /// The process exit code a finished (EOF or `\q`) session reports:
    /// nonzero when any scripted statement failed, so `set -e` shell
    /// scripts and CI notice.
    fn exit_code(&self) -> i32 {
        i32::from(self.errors > 0)
    }

    fn backslash(&mut self, line: &str) {
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim();
        match cmd {
            "\\q" => std::process::exit(self.exit_code()),
            "\\l" => {
                let names = self
                    .session
                    .engine()
                    .with_read(|db| db.relation_names());
                for r in names {
                    println!("{r}");
                }
            }
            "\\d" => println!("{}", self.describe(arg)),
            "\\stats" if arg.is_empty() => {
                let (io, degraded) =
                    self.session.engine().with_read(|db| {
                        (db.io_stats().total(), db.degraded_reason())
                    });
                println!(
                    "last statement: {} page reads, {} page writes",
                    self.last.input_pages, self.last.output_pages
                );
                println!(
                    "lifetime: {} page reads, {} page writes",
                    io.reads, io.writes
                );
                let (hits, misses) = self.session.plan_cache_stats();
                println!("plan cache: {hits} hits, {misses} misses");
                if let Some(reason) = degraded {
                    println!(
                        "DEGRADED (read-only): {reason} — writes \
                         re-arm automatically once the disk recovers"
                    );
                }
            }
            "\\stats" => {
                let meta = self
                    .session
                    .engine()
                    .with_read(|db| db.relation_meta(arg));
                match meta {
                    Err(e) => {
                        self.errors += 1;
                        println!("error: {e}");
                    }
                    Ok(st) => {
                        println!(
                            "{} — {} organization, row width {}",
                            st.name, st.method, st.row_width
                        );
                        println!(
                            "  {} stored versions, {} pages \
                             ({} scannable), {} directory level(s)",
                            st.tuple_count,
                            st.total_pages,
                            st.scannable_pages,
                            st.directory_levels
                        );
                        println!(
                            "  ~{} distinct key(s), average chain \
                             length {}",
                            st.distinct_estimate(),
                            st.chain_len()
                        );
                    }
                }
            }
            "\\now" => println!(
                "{}",
                self.session
                    .engine()
                    .with_read(|db| db.clock().now())
                    .format(Granularity::Second)
            ),
            "\\i" => {
                if self.include_depth >= MAX_INCLUDE_DEPTH {
                    self.errors += 1;
                    println!(
                        "error: \\i nesting exceeds {MAX_INCLUDE_DEPTH} \
                         (does {arg} include itself?)"
                    );
                    return;
                }
                match std::fs::read_to_string(arg) {
                    Ok(text) => {
                        self.include_depth += 1;
                        for l in text.lines() {
                            self.feed_line(l);
                        }
                        self.flush_buffer();
                        self.include_depth -= 1;
                    }
                    Err(e) => {
                        self.errors += 1;
                        println!("error reading {arg}: {e}");
                    }
                }
            }
            other => println!(
                "unknown command {other} (try \\l \\d \\stats \\now \\i \\q)"
            ),
        }
    }

    /// Process one input line: a backslash command (only at statement
    /// start) or more statement text.
    fn feed_line(&mut self, line: &str) {
        let trimmed = line.trim();
        if self.buffer.trim().is_empty() && trimmed.starts_with('\\') {
            self.backslash(trimmed);
            return;
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        if trimmed.ends_with(';') || trimmed.ends_with("\\g") {
            self.flush_buffer();
        }
    }

    /// Run whatever is buffered (used at terminators and at EOF).
    fn flush_buffer(&mut self) {
        let text = self
            .buffer
            .trim_end()
            .trim_end_matches("\\g")
            .trim_end_matches(';')
            .trim()
            .to_string();
        self.buffer.clear();
        if !text.is_empty() {
            self.run_statement(&text);
        }
    }
}

fn prompt() {
    print!("tquel> ");
    std::io::stdout().flush().ok();
}

fn die(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Open `dir` durably and apply the file-backed environment knobs; any
/// failure, an unknown knob value included, exits 1.
fn open_dir(dir: &str) -> Database {
    let mut db = Database::open_durable(dir)
        .unwrap_or_else(|e| die(format!("cannot open {dir}: {e}")));
    eprintln!("opened file-backed database at {dir}");
    if std::env::var("TDBMS_CHECKSUMS").is_ok_and(|v| v == "1") {
        db.enable_checksums();
    }
    if let Ok(v) = std::env::var("TDBMS_CHECKPOINT") {
        let policy = match v.strip_prefix("every:") {
            Some(n) => n.parse().ok().map(CheckpointPolicy::EveryN),
            None => (v == "manual").then_some(CheckpointPolicy::Manual),
        };
        match policy {
            Some(p) => db.set_checkpoint_policy(p),
            None => die(format!("bad TDBMS_CHECKPOINT value: {v}")),
        }
    }
    db
}

fn main() {
    let db = match std::env::args().nth(1) {
        Some(dir) => open_dir(&dir),
        None => Database::in_memory(),
    };
    // The terminal monitor is one session on a (shareable) engine —
    // exactly what a multi-user front end would hold per connection.
    let mut shell = Shell {
        session: tdbms::Engine::new(db).session(),
        buffer: String::new(),
        last: QueryStats::default(),
        errors: 0,
        include_depth: 0,
    };

    // Prompt only a human at a terminal: piped/batch input gets
    // results alone on stdout.
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        eprintln!(
            "tdbms terminal monitor — TQuel statements end with `;` or \
             `\\g`; \\q quits"
        );
        prompt();
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) => {
                shell.feed_line(&l);
                if interactive && shell.buffer.trim().is_empty() {
                    prompt();
                }
            }
            Err(_) => break,
        }
    }
    // EOF mid-statement: run whatever is buffered (an unterminated
    // statement is still a statement) and exit — never wait for more
    // input that cannot come.
    shell.flush_buffer();
    std::process::exit(shell.exit_code());
}
