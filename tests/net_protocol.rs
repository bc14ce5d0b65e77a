//! The wire-protocol survival suite.
//!
//! The server's hard promise is that **no byte stream a client can
//! send may panic it**. This suite attacks that promise from both
//! ends:
//!
//! * **Hostile statements** — well-framed requests whose statement
//!   text historically panicked the embedded engine (deep expression
//!   nesting, `-(i64::MIN)`, `i64::MIN mod -1`) or should be refused
//!   by policy (`copy` on a network session). Each must come back as
//!   a typed error on a connection that keeps working.
//! * **Protocol garbage** — truncated frames, oversized length
//!   prefixes, random payload bytes, and mid-frame disconnects. Each
//!   must produce a typed `Protocol` error or a dropped connection.
//! * **Guardrails** — connection cap (typed `Busy`, never a hang),
//!   per-query timeout, and row limits.
//! * **Graceful shutdown** — a durable server under load drains,
//!   checkpoints, and leaves a database `tdbms-check` audits clean.
//!
//! After every storm the server must report `panics_caught == 0`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tdbms::{Database, Engine};
use tdbms_kernel::{Error, Prng, Value};
use tdbms_net::{Client, Server, ServerConfig, ServerStats};

/// A server running on an in-memory database in a background thread.
/// Keeps a clone of the engine so tests can assert on `LockStats`
/// from outside the server.
struct TestServer {
    addr: std::net::SocketAddr,
    engine: Engine,
    handle: tdbms_net::ServerHandle,
    join: Option<std::thread::JoinHandle<ServerStats>>,
}

impl TestServer {
    fn start(cfg: ServerConfig) -> TestServer {
        let engine = Engine::new(Database::in_memory());
        Self::start_on(engine, cfg)
    }

    fn start_on(engine: Engine, cfg: ServerConfig) -> TestServer {
        let server = Server::bind(engine.clone(), "127.0.0.1:0", cfg)
            .expect("bind ephemeral");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let join =
            std::thread::spawn(move || server.run().expect("server run"));
        TestServer {
            addr,
            engine,
            handle,
            join: Some(join),
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }

    /// Shut down and return the final counters.
    fn stop(mut self) -> ServerStats {
        self.handle.shutdown();
        self.join
            .take()
            .expect("server thread")
            .join()
            .expect("server thread panicked")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn seed_relation(c: &mut Client) {
    c.query("create temporal interval t (id = i4, seq = i4)")
        .expect("create");
    for id in 1..=32 {
        c.query(&format!("append to t (id = {id}, seq = 0)"))
            .expect("seed append");
    }
}

// ---- basic round trips -------------------------------------------------

#[test]
fn query_round_trip_over_tcp() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    c.ping().expect("ping");
    seed_relation(&mut c);
    let reply = c
        .query("range of q is t\nretrieve (q.id) where q.id = 7")
        .expect("retrieve");
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(reply.rows[0][0], Value::Int(7));
    assert_eq!(reply.columns[0].0, "id");
    let stats = srv.stop();
    assert_eq!(stats.panics_caught, 0);
    assert!(stats.queries >= 34);
}

#[test]
fn two_clients_see_each_others_commits() {
    let srv = TestServer::start(ServerConfig::default());
    let mut a = srv.client();
    let mut b = srv.client();
    seed_relation(&mut a);
    a.query("append to t (id = 777, seq = 9)").expect("append");
    let reply = b
        .query("range of q is t\nretrieve (q.seq) where q.id = 777")
        .expect("cross-session read");
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(reply.rows[0][0], Value::Int(9));
    assert_eq!(srv.stop().panics_caught, 0);
}

#[test]
fn stats_request_reports_lock_and_plan_cache_counters() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    seed_relation(&mut c);
    c.query("range of q is t").expect("range");
    let hot = "retrieve (q.id) where q.id = 7";
    for _ in 0..20 {
        c.query(hot).expect("hot retrieve");
    }
    let stats = c.stats().expect("stats");
    // The 19 repeats of the hot statement are cache hits; setup
    // statements are all distinct texts, i.e. misses.
    assert!(
        stats.plan_hits >= 19,
        "expected >=19 plan-cache hits, got {}",
        stats.plan_hits
    );
    assert!(stats.plan_misses >= 1);
    assert!(
        stats.snapshot_reads >= 20,
        "hot retrieves should be snapshot reads, got {}",
        stats.snapshot_reads
    );
    // Wire counters must agree with the engine's own view.
    let locks = srv.engine.lock_stats();
    assert_eq!(stats.exclusive, locks.exclusive);
    assert_eq!(stats.snapshot_reads, locks.snapshot_reads);
    assert_eq!(srv.stop().panics_caught, 0);
}

/// The `Stats` reply changes shape with the protocol version (3 dropped
/// the shared-lock counter). A peer still speaking an older version
/// must be told so with a typed error — never handed a reply it would
/// misparse.
#[test]
fn an_older_version_peer_is_refused_with_a_typed_error() {
    use tdbms_net::wire::{
        decode_response, encode_request, read_frame, write_frame, Frame,
        MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
    };
    use tdbms_net::{Request, Response};
    assert_eq!(PROTOCOL_VERSION, 3);
    let srv = TestServer::start(ServerConfig::default());
    let mut old = encode_request(&Request::Stats);
    assert_eq!(old[1], PROTOCOL_VERSION, "[opcode][version] layout");
    old[1] = 2;
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    write_frame(&mut s, &old).expect("send");
    let Frame::Payload(frame) =
        read_frame(&mut s, MAX_RESPONSE_FRAME, None).expect("read")
    else {
        panic!("the server answers before hanging up")
    };
    match decode_response(&frame).expect("decode") {
        Response::Error(Error::Protocol(msg)) => {
            assert!(msg.contains("version 2"), "message: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let stats = srv.stop();
    assert_eq!(stats.panics_caught, 0);
    assert!(stats.protocol_errors > 0);
}

// ---- hostile statements (the panic-path regression sweep) --------------

/// Every statement here either panicked some layer of the engine
/// before the sweep or exercises a refusal policy. All must come back
/// as typed errors, on a connection that still answers the next query.
#[test]
fn hostile_statements_get_typed_errors_not_a_dead_server() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    seed_relation(&mut c);

    let deep_parens = format!(
        "range of q is t\nretrieve (q.id) where {}q.id = 1{}",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let deep_nots = format!(
        "range of q is t\nretrieve (q.id) where {} q.id = 1",
        "not ".repeat(60_000)
    );
    let hostile: &[&str] = &[
        // Parser recursion: process-killing stack overflows pre-sweep.
        &deep_parens,
        &deep_nots,
        // Arithmetic edges: debug-overflow panics pre-sweep.
        "range of q is t\nretrieve (q.id) \
         where q.id = - -9223372036854775808",
        "range of q is t\nretrieve (q.id) \
         where q.id = -9223372036854775808 mod -1",
        // Ordinary typed errors that must stay typed over the wire.
        "range of q is t\nretrieve (q.id) where q.id = 1 / 0",
        "retrieve (ghost.id) from ghost in no_such_relation",
        "append to t (id = \"not a number\", seq = 0)",
        "complete nonsense ( [ } syntax",
        "",
    ];
    for stmt in hostile {
        let err = c
            .query(stmt)
            .expect_err("hostile statement must be an error");
        assert!(
            !matches!(err, Error::Protocol(_)),
            "hostile statement must fail at the query layer, \
             not the protocol layer: {err}"
        );
        // The connection survives and still serves real queries.
        let ok = c
            .query("range of q is t\nretrieve (q.id) where q.id = 3")
            .expect("connection must survive a hostile statement");
        assert_eq!(ok.rows.len(), 1);
    }

    // `copy` is denied by default: it reads/writes server-local files.
    let err = c
        .query("copy t to \"/tmp/exfil.dat\"")
        .expect_err("copy must be refused on a network session");
    assert!(
        matches!(err, Error::NotApplicable(_) | Error::Parse { .. }),
        "copy refusal must be typed, got: {err}"
    );

    let stats = srv.stop();
    assert_eq!(
        stats.panics_caught, 0,
        "a hostile statement reached a panic"
    );
}

// ---- protocol garbage --------------------------------------------------

/// Raw-socket storm: random garbage, truncated frames, huge length
/// prefixes, and mid-frame disconnects. The server must drop or
/// error every one without panicking, and keep serving good clients.
#[test]
fn protocol_fuzz_storm_never_panics_the_server() {
    let srv = TestServer::start(ServerConfig::default());
    {
        let mut c = srv.client();
        seed_relation(&mut c);
    }

    let mut prng = Prng::seed_from_u64(0xF00D_F00D_CAFE_0007);
    for round in 0..64u64 {
        let mut s = TcpStream::connect(srv.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        match round % 4 {
            0 => {
                // Pure garbage bytes, no valid framing.
                let n = 1 + (prng.next_u64() % 256) as usize;
                let junk: Vec<u8> =
                    (0..n).map(|_| prng.next_u64() as u8).collect();
                let _ = s.write_all(&junk);
            }
            1 => {
                // Oversized length prefix (up to u32::MAX).
                let evil =
                    (1u64 << 20) as u32 + 1 + prng.next_u64() as u32 % 1024;
                let _ = s.write_all(&evil.to_le_bytes());
                let _ = s.write_all(b"moo");
            }
            2 => {
                // A truncated prefix of a valid request.
                let full = tdbms_net::wire::encode_request(
                    &tdbms_net::Request::Query {
                        stmt: "retrieve (q.id)".into(),
                        timeout_ms: 0,
                        max_rows: 0,
                    },
                );
                let mut framed = (full.len() as u32).to_le_bytes().to_vec();
                framed.extend_from_slice(&full);
                let cut =
                    1 + (prng.next_u64() as usize) % (framed.len() - 1);
                let _ = s.write_all(&framed[..cut]);
            }
            _ => {
                // Mid-frame disconnect: claim a big frame, send a
                // little, slam the connection.
                let _ = s.write_all(&4096u32.to_le_bytes());
                let _ = s.write_all(&[0u8; 16]);
            }
        }
        // Whatever the server does (typed error frame or silent
        // drop), the read must terminate.
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        drop(s);
    }

    // A good client still gets service after the storm — including a
    // write, which needs the exclusive commit lock: if any storm
    // connection had leaked a Session's shared lock, this would hang.
    let mut c = srv.client();
    let reply = c
        .query("range of q is t\nretrieve (q.id) where q.id = 5")
        .expect("server must survive the storm");
    assert_eq!(reply.rows.len(), 1);
    let before = srv.engine.lock_stats();
    c.query("append to t (id = 999, seq = 1)")
        .expect("writes still work after the storm");
    let after = srv.engine.lock_stats();
    assert!(
        after.exclusive > before.exclusive,
        "the post-storm write never took the exclusive lock: \
         {before:?} -> {after:?}"
    );
    drop(c);

    let stats = srv.stop();
    assert_eq!(stats.panics_caught, 0, "the storm reached a panic");
    assert!(
        stats.protocol_errors > 0,
        "the storm should have registered protocol errors"
    );
}

// ---- slow peers and idle connections -----------------------------------

/// One response frame off a raw socket, read without the crate's own
/// frame reader so these tests pin the server alone.
fn read_response(s: &mut TcpStream) -> tdbms_net::Response {
    let mut header = [0u8; 4];
    s.read_exact(&mut header).expect("response header");
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    s.read_exact(&mut payload).expect("response payload");
    tdbms_net::wire::decode_response(&payload).expect("decode")
}

fn ping_frame() -> Vec<u8> {
    let payload =
        tdbms_net::wire::encode_request(&tdbms_net::Request::Ping);
    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&payload);
    framed
}

/// A peer that starts a frame and stalls, in the header or in the
/// payload, gets a typed `Protocol` error and a closed connection once
/// `io_deadline` passes; the server keeps serving everyone else.
#[test]
fn a_frame_stalled_past_the_io_deadline_is_cut_off() {
    let cfg = ServerConfig {
        io_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let srv = TestServer::start(cfg);
    let query =
        tdbms_net::wire::encode_request(&tdbms_net::Request::Query {
            stmt: "retrieve (q.id)".into(),
            timeout_ms: 0,
            max_rows: 0,
        });
    let mut mid_payload = (query.len() as u32).to_le_bytes().to_vec();
    mid_payload.extend_from_slice(&query[..query.len() / 2]);
    let stalls: [&[u8]; 2] = [&ping_frame()[..2], &mid_payload];
    let t0 = std::time::Instant::now();
    let mut sockets: Vec<TcpStream> = stalls
        .iter()
        .map(|bytes| {
            let mut s = TcpStream::connect(srv.addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(bytes).expect("partial frame");
            s
        })
        .collect();
    for s in &mut sockets {
        match read_response(s) {
            tdbms_net::Response::Error(Error::Protocol(msg)) => {
                assert!(msg.contains("stalled"), "message: {msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let mut rest = [0u8; 16];
        assert_eq!(s.read(&mut rest).expect("closed, not timed out"), 0);
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(300),
        "cut off before the deadline: {:?}",
        t0.elapsed()
    );
    let mut c = srv.client();
    c.ping().expect("a third client is still served");
    let stats = srv.stop();
    assert!(stats.protocol_errors >= 2, "{stats:?}");
    assert_eq!(stats.panics_caught, 0);
}

/// A connection that sends nothing for several of the server's read
/// polls is idle, not broken: its first frame is answered.
#[test]
fn an_idle_connection_is_answered_after_several_polls() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    std::thread::sleep(Duration::from_millis(450));
    c.ping().expect("ping after idling");
    seed_relation(&mut c);
    std::thread::sleep(Duration::from_millis(350));
    let reply = c
        .query("range of q is t\nretrieve (q.id) where q.id = 7")
        .expect("retrieve after idling");
    assert_eq!(reply.rows.len(), 1);
    assert_eq!(reply.rows[0][0], Value::Int(7));
    let stats = srv.stop();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.panics_caught, 0);
}

/// A frame whose header and payload arrive in two writes, with a pause
/// longer than a read poll but shorter than `io_deadline`, is answered.
#[test]
fn a_frame_split_across_two_writes_is_answered() {
    let cfg = ServerConfig {
        io_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let srv = TestServer::start(cfg);
    let mut s = TcpStream::connect(srv.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let frame = ping_frame();
    for _ in 0..2 {
        s.write_all(&frame[..4]).expect("header");
        std::thread::sleep(Duration::from_millis(250));
        s.write_all(&frame[4..]).expect("payload");
        assert_eq!(read_response(&mut s), tdbms_net::Response::Pong);
    }
    drop(s);
    let stats = srv.stop();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.panics_caught, 0);
}

// ---- guardrails --------------------------------------------------------

#[test]
fn connection_cap_returns_typed_busy_never_hangs() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let srv = TestServer::start(cfg);
    let mut first = srv.client();
    first.ping().expect("first connection admitted");

    // The second connection must be rejected with Busy promptly.
    let mut second = srv.client();
    let err = second
        .ping()
        .expect_err("second connection must be rejected");
    assert!(
        matches!(err, Error::Busy | Error::Protocol(_)),
        "expected Busy (or a dropped connection), got: {err}"
    );

    // Once the first disconnects, a new client is admitted.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut again = srv.client();
        if again.ping().is_ok() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after disconnect"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = srv.stop();
    assert!(stats.busy_rejections >= 1);
    assert_eq!(stats.panics_caught, 0);
}

#[test]
fn per_query_timeout_fires_as_typed_error() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    c.query("create temporal interval big (id = i4, seq = i4)")
        .expect("create");
    for id in 1..=48 {
        c.query(&format!("append to big (id = {id}, seq = 0)"))
            .expect("append");
    }
    // A 4-way cross product (48^4 ≈ 5.3M candidate rows) cannot
    // finish in 1ms; the guard must fire as a typed Timeout.
    let err = c
        .query_with(
            "range of a is big\nrange of b is big\n\
             range of c is big\nrange of d is big\n\
             retrieve (a.id) \
             where a.seq = b.seq and b.seq = c.seq and c.seq = d.seq",
            1,
            0,
        )
        .expect_err("1ms budget must time out");
    assert!(
        matches!(err, Error::Timeout { .. }),
        "expected Timeout, got: {err}"
    );
    // Connection and server still fine.
    let ok = c
        .query("range of q is big\nretrieve (q.id) where q.id = 1")
        .expect("connection survives a timeout");
    assert_eq!(ok.rows.len(), 1);
    assert_eq!(srv.stop().panics_caught, 0);
}

#[test]
fn row_limit_fires_as_typed_error() {
    let srv = TestServer::start(ServerConfig::default());
    let mut c = srv.client();
    seed_relation(&mut c);
    let err = c
        .query_with("range of q is t\nretrieve (q.id)", 0, 5)
        .expect_err("32 rows over a 5-row cap must fail");
    match err {
        Error::LimitExceeded { what, limit } => {
            assert_eq!(what, "rows");
            assert_eq!(limit, 5);
        }
        other => panic!("expected LimitExceeded, got: {other}"),
    }
    // At or under the cap succeeds.
    let ok = c
        .query_with("range of q is t\nretrieve (q.id) where q.id < 5", 0, 5)
        .expect("under-cap retrieve");
    assert_eq!(ok.rows.len(), 4);
    assert_eq!(srv.stop().panics_caught, 0);
}

// ---- graceful shutdown -------------------------------------------------

/// A durable server with clients mid-workload shuts down cleanly: the
/// wire `Shutdown` is acknowledged, workers drain, the exit checkpoint
/// lands, and `tdbms-check` audits the directory clean.
#[test]
fn graceful_shutdown_leaves_an_audit_clean_database() {
    let dir = tempdir();
    let db = Database::open_durable(&dir).expect("open durable");
    let engine = Engine::new(db);
    let mut srv = TestServer::start_on(engine, ServerConfig::default());

    let mut c = srv.client();
    seed_relation(&mut c);

    // Background writers mid-flight while shutdown arrives.
    let addr = srv.addr;
    let writers: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                for i in 0..200 {
                    let id = 1000 + w * 1000 + i;
                    if c.query(&format!("append to t (id = {id}, seq = 1)"))
                        .is_err()
                    {
                        // ShuttingDown / dropped connection: expected
                        // once the drain begins.
                        break;
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));

    c.shutdown_server().expect("shutdown acknowledged");
    for w in writers {
        w.join().expect("writer thread");
    }
    let stats = srv
        .join
        .take()
        .expect("server thread")
        .join()
        .expect("server run");
    assert_eq!(stats.panics_caught, 0);

    // The checkpointed directory must audit clean.
    let report = tdbms_check::CheckedDb::open(&dir)
        .expect("reopen for audit")
        .check()
        .expect("audit runs");
    assert!(
        report.is_clean(),
        "post-shutdown audit found problems:\n{}",
        report.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn tempdir() -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    let unique = format!(
        "tdbms-net-test-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    );
    p.push(unique);
    std::fs::create_dir_all(&p).expect("create tempdir");
    p
}
