//! `gems-serve` — the networked GEMS front-end server (paper §III).
//!
//! ```sh
//! gems-serve [--addr HOST:PORT] [--data-dir DIR] [--load DIR]
//!            [--durable DIR] [--checkpoint-every N]
//!            [--init SCRIPT] [--user NAME=ROLE]...
//!            [--request-timeout SECS] [--idle-timeout SECS]
//!            [--request-timeout-ms MS] [--idle-timeout-ms MS]
//!            [--max-connections N] [--error-budget N]
//!            [--max-concurrency N] [--queue-wait-ms MS]
//!            [--max-result-rows N] [--max-query-bytes N]
//!            [--exec-threads N] [--workers N] [--plan-cache N]
//!            [--metrics-addr HOST:PORT] [--slow-query-ms MS]
//!            [--slow-query-log FILE]
//! ```
//!
//! Hosts one shared database behind the `graql-net` wire protocol;
//! clients connect with `gems-shell --connect HOST:PORT --user NAME`.
//! Prints a single `gems-serve listening on ADDR` line (flushed) once
//! ready, so supervisors and CI scripts can wait for it.
//!
//! The server runs until stdin reaches EOF, a line reading `shutdown`
//! arrives, or the process receives SIGTERM/SIGINT — all three trigger a
//! graceful shutdown that drains in-flight requests and (on durable
//! servers) folds the log into a final checkpoint. Process supervisors
//! therefore get clean teardown from a plain `kill`; `kill -9` still
//! works, it just skips the drain. A stdin line reading `promote` fences
//! a replica into a writable primary (the same transition the wire
//! `Promote` message performs).
//!
//! With `--durable DIR` the database lives in `DIR`: every mutating
//! statement is write-ahead logged before it is acknowledged, startup
//! recovers the last snapshot plus all committed log records (discarding
//! any torn tail a crash left behind), and graceful shutdown folds the
//! log into a fresh snapshot. `kill -9` loses nothing that was
//! acknowledged. `--checkpoint-every N` tunes how many log records
//! accumulate before an automatic checkpoint (0 = only on shutdown).
//!
//! With `--replica-of HOST:PORT` (requires `--durable`) the server comes
//! up as a read-only hot standby: it bootstraps from the primary's
//! latest checkpoint, tails the primary's WAL stream into its own log
//! and epoch chain, serves read-only queries lock-free, and rejects
//! writes with `E0911 NotPrimary` carrying the primary's address. It
//! reconnects with bounded backoff across primary restarts, resuming
//! exactly at its durable watermark. Promotion (wire `Promote` or the
//! stdin `promote` line) fences it into a writable primary.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use graql::core::{load_dir, Database, DurabilityOptions, ReplRole, Role, Server};
use graql::net::{serve, RetryPolicy, ServeOptions};
use graql::types::failpoints::Faults;
use graql::types::QueryBudget;

/// SIGTERM/SIGINT as a flag instead of process death, so orchestration
/// can stop the server cleanly (drain + final checkpoint) without the
/// stdin pipe. Bound by hand because the tree carries no libc crate: std
/// already links the C library, `signal(2)` is in it, and the handler
/// body is a single atomic store (async-signal-safe).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_stop(_: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stop_requested() -> bool {
        false
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gems-serve [--addr HOST:PORT] [--data-dir DIR] [--load DIR] \
         [--durable DIR] [--checkpoint-every N] \
         [--init SCRIPT] [--user NAME=ROLE]... [--request-timeout SECS] \
         [--idle-timeout SECS] [--request-timeout-ms MS] [--idle-timeout-ms MS] \
         [--max-connections N] [--error-budget N] [--max-concurrency N] \
         [--queue-wait-ms MS] [--max-result-rows N] [--max-query-bytes N] \
         [--exec-threads N] [--workers N] [--plan-cache N] [--replica-of HOST:PORT] \
         [--metrics-addr HOST:PORT] [--slow-query-ms MS] [--slow-query-log FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut opts = ServeOptions {
        addr: "127.0.0.1:4632".to_string(),
        ..ServeOptions::default()
    };
    let mut data_dir: Option<String> = None;
    let mut load: Option<String> = None;
    let mut durable: Option<String> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut init: Option<String> = None;
    let mut users: Vec<(String, Role)> = Vec::new();
    let mut budget = QueryBudget::UNLIMITED;
    let mut exec_threads: Option<usize> = None;
    let mut plan_cache: Option<usize> = None;
    let mut replica_of: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => opts.addr = args.next().unwrap_or_else(|| usage()),
            "--data-dir" => data_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--load" => load = Some(args.next().unwrap_or_else(|| usage())),
            "--durable" => durable = Some(args.next().unwrap_or_else(|| usage())),
            "--checkpoint-every" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(n) => checkpoint_every = Some(n),
                    Err(_) => usage(),
                }
            }
            "--init" => init = Some(args.next().unwrap_or_else(|| usage())),
            "--user" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let Some((name, role)) = spec.split_once('=') else {
                    usage()
                };
                match Role::parse(role) {
                    Ok(r) => users.push((name.to_string(), r)),
                    Err(e) => {
                        eprintln!("gems-serve: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--request-timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                match secs.parse::<u64>() {
                    Ok(s) => opts.request_timeout = Duration::from_secs(s),
                    Err(_) => usage(),
                }
            }
            "--idle-timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                match secs.parse::<u64>() {
                    Ok(s) => opts.idle_timeout = Duration::from_secs(s),
                    Err(_) => usage(),
                }
            }
            // Millisecond-granularity variants, for tests and tight SLOs.
            "--request-timeout-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) => opts.request_timeout = Duration::from_millis(ms),
                    Err(_) => usage(),
                }
            }
            "--idle-timeout-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) => opts.idle_timeout = Duration::from_millis(ms),
                    Err(_) => usage(),
                }
            }
            "--max-connections" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(n) => opts.max_connections = n,
                    Err(_) => usage(),
                }
            }
            "--error-budget" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u32>() {
                    Ok(n) => opts.error_budget = n,
                    Err(_) => usage(),
                }
            }
            "--max-concurrency" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(n) if n >= 1 => opts.max_concurrency = n,
                    _ => usage(),
                }
            }
            "--queue-wait-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) => opts.queue_wait = Duration::from_millis(ms),
                    Err(_) => usage(),
                }
            }
            "--max-result-rows" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(n) => budget.max_result_rows = Some(n),
                    Err(_) => usage(),
                }
            }
            "--max-query-bytes" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u64>() {
                    Ok(n) => budget.max_query_bytes = Some(n),
                    Err(_) => usage(),
                }
            }
            // Morsel-parallel execution worker count: 1 = serial, default
            // = available cores. Results are byte-identical either way.
            "--exec-threads" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => exec_threads = Some(n),
                    _ => usage(),
                }
            }
            // Serve-path worker pool size: 0 = one per available core
            // (with a small floor). Distinct from --exec-threads, which
            // sizes the morsel pool *inside* one query.
            "--workers" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(n) => opts.workers = n,
                    Err(_) => usage(),
                }
            }
            // Compiled-plan cache capacity in entries (0 disables).
            "--plan-cache" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(n) => plan_cache = Some(n),
                    Err(_) => usage(),
                }
            }
            "--replica-of" => replica_of = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-addr" => opts.metrics_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--slow-query-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) => opts.slow_query_ms = Some(ms),
                    Err(_) => usage(),
                }
            }
            "--slow-query-log" => {
                opts.slow_query_log = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    // The only place fault state comes from the environment: test
    // harnesses arm a spawned server through GRAQL_FAILPOINTS.
    let faults = Faults::from_env();
    let server = if let Some(dir) = &durable {
        if load.is_some() {
            eprintln!(
                "gems-serve: --durable and --load are mutually exclusive \
                 (the durable directory carries its own snapshot)"
            );
            return ExitCode::FAILURE;
        }
        let mut dopts = DurabilityOptions::default();
        if let Some(n) = checkpoint_every {
            dopts.checkpoint_every = n;
        }
        match Server::open_durable_with_faults(std::path::Path::new(dir), dopts, faults) {
            Ok((server, report)) => {
                eprintln!(
                    "gems-serve: durable at {dir} (snapshot loaded: {}, replayed {} records, \
                     discarded {} torn bytes)",
                    report.snapshot_loaded, report.replayed_records, report.torn_bytes_discarded
                );
                server
            }
            Err(e) => {
                eprintln!("gems-serve: cannot open durable dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let db = match &load {
            Some(dir) => match load_dir(std::path::Path::new(dir), &faults) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("gems-serve: cannot load {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Database::new(),
        };
        Server::with_faults(db, faults)
    };
    if let Some(dir) = data_dir {
        server.database_mut().set_data_dir(dir);
    }
    if let Some(n) = exec_threads {
        server.database_mut().config_mut().threads = n;
    }
    if let Some(n) = plan_cache {
        server.set_plan_cache_capacity(n);
    }
    if let Some(path) = init {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gems-serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Route through a session so a durable server write-ahead logs
        // the init statements like any other mutation.
        let run = server
            .connect("admin")
            .and_then(|mut sess| sess.execute_script(&text));
        if let Err(e) = run {
            eprintln!("gems-serve: init script failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The budget lives on the database config (single source of truth):
    // the net layer folds in its per-request deadline, and `check`
    // requests see it, so W0303 stays quiet once a deadline or a byte cap
    // is configured.
    server.set_query_budget(budget);
    for (name, role) in users {
        if let Err(e) = server.create_user(&name, role) {
            eprintln!("gems-serve: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Replica mode: fence writes *before* the listener opens, so not a
    // single client write can slip in ahead of the role.
    if let Some(primary) = &replica_of {
        if durable.is_none() {
            eprintln!(
                "gems-serve: --replica-of requires --durable \
                 (the replica persists its applied-LSN watermark in its own log)"
            );
            return ExitCode::FAILURE;
        }
        server.set_replica_of(primary.clone());
        eprintln!("gems-serve: replica of {primary} (read-only until promoted)");
    }

    let server_handle = server.clone();
    let mut net = match serve(server, opts) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("gems-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The tailer starts after the listener so its reconnect counters land
    // in this node's stats; it resumes from the local durable watermark.
    let mut tailer = replica_of.as_ref().map(|primary| {
        graql::net::start_tailer(
            server_handle.clone(),
            primary.clone(),
            RetryPolicy::default(),
            net.stats(),
        )
    });
    graql::net::server::announce(&mut std::io::stdout(), net.local_addr());
    if let Some(addr) = net.metrics_addr() {
        println!("gems-serve metrics on http://{addr}/metrics");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }

    // Serve until stdin closes (or an explicit `shutdown` line) or a
    // SIGTERM/SIGINT arrives, then drain gracefully. Stdin is watched
    // from a helper thread so the main thread can poll the signal flag.
    sig::install();
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(l) = line else { break };
            if tx.send(l).is_err() {
                return;
            }
        }
        let _ = tx.send("shutdown".to_string()); // EOF
    });
    loop {
        if sig::stop_requested() {
            eprintln!("gems-serve: received stop signal");
            break;
        }
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(l) if l.trim() == "promote" => match server_handle.promote() {
                ReplRole::Replica { primary } => {
                    eprintln!("gems-serve: promoted to primary (was replica of {primary})")
                }
                ReplRole::Primary => eprintln!("gems-serve: already primary"),
            },
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    eprintln!("gems-serve: shutting down (draining in-flight requests)");
    net.shutdown();
    if let Some(t) = tailer.as_mut() {
        t.stop();
    }
    // Fold the log into a snapshot so the next start replays nothing.
    if let Err(e) = server_handle.checkpoint_now() {
        eprintln!("gems-serve: final checkpoint failed (log is intact): {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
