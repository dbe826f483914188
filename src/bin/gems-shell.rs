//! `gems-shell` — a command-line client for the embedded GEMS/GraQL
//! database (the "simple command-line interface" client of paper §III).
//!
//! ```sh
//! gems-shell script.graql [--data-dir DIR] [--param NAME=VALUE]... [--parallel]
//! gems-shell check script.graql        # static analysis only, no execution
//! gems-shell script.graql --check-only # same
//! gems-shell check script.graql --json # machine-readable diagnostics
//! gems-shell script.graql --connect HOST:PORT --user NAME [--timeout SECS]
//! gems-shell script.graql --connect HOST:PORT,HOST:PORT [--retries N] [--backoff-ms MS]
//! gems-shell --promote --connect HOST:PORT   # fence a replica into a primary
//! ```
//!
//! Executes the script statement by statement (or with the dependence
//! scheduler under `--parallel`) and prints each result. `ingest` paths in
//! the script resolve against `--data-dir`.
//!
//! With `--connect`, the script runs on a remote `gems-serve` instead of
//! an in-process database, through the same session interface — output is
//! byte-identical to a local run. Flags that need the database in-process
//! (`--save`, `--dot`, `--parallel`, `--data-dir`, `--param`) are
//! rejected in this mode; `check` ships the script for remote analysis
//! and renders the diagnostics locally. Ctrl-C during a remote run sends
//! an out-of-band `Cancel` frame instead of killing the shell: the server
//! aborts the in-flight query and replies with the typed cancellation
//! error (a second Ctrl-C terminates the shell the ordinary way).
//!
//! `check` / `--check-only` runs the full multi-pass static analysis and
//! prints every diagnostic with source carets, without executing anything.
//! Exit status is non-zero only if errors (not warnings or hints) were
//! found. `--json` swaps the caret rendering for one JSON array of
//! diagnostic objects (stable `code`, `severity`, `message`, `line`,
//! `col`, `len`, `notes`) for editor and CI integration; it works both
//! locally and with `--connect`.
//!
//! `--connect` accepts a comma-separated endpoint list: the session
//! connects to the first reachable one, transparently redirects writes to
//! the primary when a replica answers `E0911 NotPrimary`, and fails reads
//! over to the next endpoint when a node dies. `--retries` and
//! `--backoff-ms` tune the retry policy; `--promote` sends the admin
//! `Promote` message instead of running a script.
//!
//! `--loadgen` turns the shell into a pipelined load generator: the
//! script is compiled to IR once, then submitted over a single connection
//! with `--depth` requests in flight (the v5 multiplexed pipeline) for
//! `--duration-ms`. It prints a one-line throughput summary and, with
//! `--loadgen-json FILE`, writes qps plus a latency histogram as JSON for
//! the CI throughput lane.

use std::process::ExitCode;
use std::time::Duration;

use graql::prelude::*;
use graql::types::failpoints::Faults;

fn usage() -> ! {
    eprintln!(
        "usage: gems-shell <script.graql> [--data-dir DIR] [--param NAME=VALUE]... \
         [--parallel] [--out FILE] [--save DIR] [--dot SUBGRAPH=FILE] [--check-only]\n\
         \x20      gems-shell check <script.graql> [--json]\n\
         \x20      gems-shell <script.graql> --connect HOST:PORT[,HOST:PORT...] [--user NAME] \
         [--timeout SECS] [--retries N] [--backoff-ms MS]\n\
         \x20      gems-shell --promote --connect HOST:PORT [--user NAME]\n\
         \x20      gems-shell <script.graql> --connect HOST:PORT --loadgen \
         [--duration-ms MS] [--depth N] [--loadgen-json FILE]"
    );
    std::process::exit(2);
}

/// SIGINT as a flag instead of process death, so an in-flight remote query
/// can be cancelled over the wire. Bound by hand because the tree carries
/// no libc crate: std already links the C library, `signal(2)` is in it,
/// and the handler body is a single atomic store (async-signal-safe).
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
    }

    /// Back to the default disposition: once the cancel has been sent, a
    /// second Ctrl-C should kill the shell, not queue another flag.
    pub fn restore_default() {
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn restore_default() {}
    pub fn interrupted() -> bool {
        false
    }
}

fn parse_param(s: &str) -> Option<(String, Value)> {
    let (name, raw) = s.split_once('=')?;
    // Best-effort typing: integer, float, date, else string.
    let value = if let Ok(i) = raw.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = raw.parse::<f64>() {
        Value::Float(f)
    } else if let Ok(d) = raw.parse::<Date>() {
        Value::Date(d)
    } else {
        Value::str(raw)
    };
    Some((name.to_string(), value))
}

/// Static analysis without execution: print every diagnostic with carets
/// (or as a JSON array under `--json`), fail only on errors.
fn run_check(db: &mut Database, text: &str, path: &str, json: bool) -> ExitCode {
    let diags = db.check_script_str(text);
    render_check(&diags, text, path, json)
}

fn render_check(diags: &Diagnostics, text: &str, path: &str, json: bool) -> ExitCode {
    if json {
        println!("{}", diags.to_json());
    } else {
        print!("{}", diags.render(text, path));
    }
    if diags.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Prints remote statement outputs in exactly the format of the local
/// path below — a remote run must be byte-identical to an in-process run.
fn print_session_outputs(outputs: &[graql::core::SessionOutput]) {
    use graql::core::SessionOutput;
    for (i, out) in outputs.iter().enumerate() {
        match out {
            SessionOutput::Created(name) => println!("[{i}] created {name}"),
            SessionOutput::Ingested { table, rows } => {
                println!("[{i}] ingested {rows} rows into {table}")
            }
            SessionOutput::Table(t) => {
                println!("[{i}] table ({} rows):", t.n_rows());
                print!("{}", t.render());
            }
            SessionOutput::Subgraph { summary, .. } => {
                println!("[{i}] subgraph: {summary}")
            }
            SessionOutput::Pipelined => {
                println!("[{i}] pipelined into the next statement")
            }
            SessionOutput::Profile { text, .. } => {
                println!("[{i}] profile:");
                print!("{text}");
            }
        }
    }
}

/// Resolves a comma-separated endpoint list into one failover address
/// list, preserving order (first entry = preferred endpoint).
fn resolve_endpoints(spec: &str) -> std::result::Result<Vec<std::net::SocketAddr>, String> {
    use std::net::ToSocketAddrs;
    let mut addrs = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.to_socket_addrs() {
            Ok(resolved) => addrs.extend(resolved),
            Err(e) => return Err(format!("cannot resolve {part}: {e}")),
        }
    }
    if addrs.is_empty() {
        return Err(format!("'{spec}' resolves to no address"));
    }
    Ok(addrs)
}

/// The `--loadgen` mode: a closed-loop pipelined load generator. One
/// connection, `depth` requests in flight, FIFO collection (the server
/// preserves no cross-request order guarantee, but replies to a steady
/// pipeline arrive near-FIFO, so waiting on the oldest id keeps the
/// pipe full without a poll sweep).
fn run_loadgen(
    addr: &str,
    user: &str,
    timeout: Duration,
    text: &str,
    duration: Duration,
    depth: usize,
    json_out: Option<&str>,
) -> ExitCode {
    use graql::net::{ConnectOptions, RemoteSession};
    use std::collections::VecDeque;
    use std::time::Instant;

    let endpoints = match resolve_endpoints(addr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gems-shell: {e}");
            return ExitCode::FAILURE;
        }
    };
    let script = match graql::parser::parse(text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gems-shell: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ir = graql::core::ir::encode(&script);
    let opts = ConnectOptions::new(user)
        .with_timeout(timeout)
        .with_retries(0);
    let mut session = match RemoteSession::connect(&endpoints[..], opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gems-shell: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One synchronous warmup request faults in the plan cache and proves
    // the script executes before the clock starts.
    let warm = session.submit_ir(&ir).and_then(|id| session.wait(id));
    if let Err(e) = warm {
        eprintln!("gems-shell: loadgen warmup failed: {e}");
        return ExitCode::FAILURE;
    }

    let start = Instant::now();
    let end = start + duration;
    let mut window: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut lat_us: Vec<u64> = Vec::new();
    let mut errors: u64 = 0;
    loop {
        let refill = Instant::now() < end;
        if !refill && window.is_empty() {
            break;
        }
        while refill && window.len() < depth {
            match session.submit_ir(&ir) {
                Ok(id) => window.push_back((id, Instant::now())),
                Err(e) => {
                    eprintln!("gems-shell: loadgen submit failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let Some((id, t0)) = window.pop_front() else {
            break;
        };
        match session.wait(id) {
            Ok(_) => lat_us.push(t0.elapsed().as_micros() as u64),
            Err(e) => {
                errors += 1;
                // A broken transport fails every in-flight request the
                // same way; one report is enough.
                if errors == 1 {
                    eprintln!("gems-shell: loadgen request failed: {e}");
                }
            }
        }
    }
    let wall = start.elapsed();

    lat_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat_us.is_empty() {
            return 0;
        }
        let idx = ((lat_us.len() as f64 - 1.0) * p).round() as usize;
        lat_us[idx]
    };
    let (p50, p90, p99) = (pct(0.50), pct(0.90), pct(0.99));
    let max = lat_us.last().copied().unwrap_or(0);
    let n = lat_us.len() as u64;
    let qps = n as f64 / wall.as_secs_f64().max(1e-9);

    // Power-of-two latency buckets: [upper_bound_us, count] pairs.
    let mut histogram: Vec<(u64, u64)> = Vec::new();
    for &us in &lat_us {
        let bound = us.max(1).next_power_of_two();
        match histogram.last_mut() {
            Some((b, c)) if *b == bound => *c += 1,
            _ => histogram.push((bound, 1)),
        }
    }

    println!(
        "loadgen: {n} requests in {:.2}s -> {qps:.0} qps \
         (depth {depth}, p50 {p50}us, p90 {p90}us, p99 {p99}us, max {max}us, {errors} errors)",
        wall.as_secs_f64()
    );
    if let Some(path) = json_out {
        let buckets: Vec<String> = histogram
            .iter()
            .map(|(b, c)| format!("[{b},{c}]"))
            .collect();
        let json = format!(
            "{{\"requests\":{n},\"errors\":{errors},\"duration_ms\":{},\"depth\":{depth},\
             \"qps\":{qps:.1},\"latency_us\":{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\
             \"max\":{max}}},\"histogram_us\":[{}]}}\n",
            wall.as_millis(),
            buckets.join(",")
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("gems-shell: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote loadgen report to {path}");
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--connect` mode: the whole script runs on a remote `gems-serve`
/// through [`graql::net::RemoteSession`].
#[allow(clippy::too_many_arguments)]
fn run_remote(
    addr: &str,
    user: &str,
    timeout: Duration,
    retry: graql::net::RetryPolicy,
    promote: bool,
    text: &str,
    script_path: &str,
    check_only: bool,
    json: bool,
    out_path: Option<&str>,
) -> ExitCode {
    use graql::net::{ConnectOptions, GemsSession, RemoteSession};
    let endpoints = match resolve_endpoints(addr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gems-shell: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = ConnectOptions::new(user)
        .with_timeout(timeout)
        .with_retry_policy(retry);
    let mut session = match RemoteSession::connect(&endpoints[..], opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gems-shell: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if promote {
        return match session.promote() {
            Ok(()) => {
                println!("promoted {} to primary", session.connected_addr());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gems-shell: promote failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if check_only {
        return match session.check_script(text) {
            Ok(diags) => render_check(&diags, text, script_path, json),
            Err(e) => {
                eprintln!("gems-shell: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // Ctrl-C mid-query becomes a wire Cancel: a watcher thread polls the
    // flag and fires the out-of-band handle while the main thread blocks
    // in the request; the server kills the query and replies with the
    // typed cancellation error, which falls out of the Err arm below.
    sigint::install();
    let cancel = session.cancel_handle().ok();
    use std::sync::atomic::{AtomicBool, Ordering};
    let done = AtomicBool::new(false);
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if sigint::interrupted() {
                    if let Some(h) = &cancel {
                        let _ = h.cancel();
                    }
                    sigint::restore_default();
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let r = session.execute_script(text);
        done.store(true, Ordering::SeqCst);
        r
    });
    match result {
        Ok(outputs) => {
            if let Some(path) = out_path {
                let last_table = outputs.iter().rev().find_map(|o| match o {
                    graql::core::SessionOutput::Table(t) => Some(t),
                    _ => None,
                });
                match last_table {
                    Some(t) => {
                        let mut buf = Vec::new();
                        if let Err(e) = graql::table::csv::write_csv(t, &mut buf).and_then(|()| {
                            std::fs::write(path, buf).map_err(|e| GraqlError::ingest(e.to_string()))
                        }) {
                            eprintln!("gems-shell: cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote last table result to {path}");
                    }
                    None => eprintln!("gems-shell: no table result to write to {path}"),
                }
            }
            print_session_outputs(&outputs);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gems-shell: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let mut script_path: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut params: Vec<(String, Value)> = Vec::new();
    let mut parallel = false;
    let mut check_only = false;
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut save_dir: Option<String> = None;
    let mut dot_spec: Option<(String, String)> = None;
    let mut connect: Option<String> = None;
    let mut user = "admin".to_string();
    let mut timeout = Duration::from_secs(60);
    let mut retry = graql::net::RetryPolicy::default();
    let mut promote = false;
    let mut loadgen = false;
    let mut duration = Duration::from_millis(3000);
    let mut depth: usize = 64;
    let mut loadgen_json: Option<String> = None;
    // `gems-shell check <script>` is sugar for `<script> --check-only`.
    if args.peek().map(String::as_str) == Some("check") {
        args.next();
        check_only = true;
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--data-dir" => data_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--param" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match parse_param(&spec) {
                    Some(kv) => params.push(kv),
                    None => usage(),
                }
            }
            "--parallel" => parallel = true,
            "--check-only" => check_only = true,
            "--json" => json = true,
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage())),
            "--save" => save_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--dot" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match spec.split_once('=') {
                    Some((n, f)) => dot_spec = Some((n.to_string(), f.to_string())),
                    None => usage(),
                }
            }
            "--connect" => connect = Some(args.next().unwrap_or_else(|| usage())),
            "--user" => user = args.next().unwrap_or_else(|| usage()),
            "--timeout" => {
                let secs = args.next().unwrap_or_else(|| usage());
                match secs.parse::<u64>() {
                    Ok(s) => timeout = Duration::from_secs(s),
                    Err(_) => usage(),
                }
            }
            "--retries" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<u32>() {
                    Ok(n) => retry.max_retries = n,
                    Err(_) => usage(),
                }
            }
            "--backoff-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) => retry.base_backoff = Duration::from_millis(ms),
                    Err(_) => usage(),
                }
            }
            "--promote" => promote = true,
            "--loadgen" => loadgen = true,
            "--duration-ms" => {
                let ms = args.next().unwrap_or_else(|| usage());
                match ms.parse::<u64>() {
                    Ok(ms) if ms >= 1 => duration = Duration::from_millis(ms),
                    _ => usage(),
                }
            }
            "--depth" => {
                let n = args.next().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => depth = n,
                    _ => usage(),
                }
            }
            "--loadgen-json" => loadgen_json = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ if script_path.is_none() => script_path = Some(a),
            _ => usage(),
        }
    }
    // `--promote` is a complete remote command on its own: no script.
    if promote {
        let Some(addr) = connect else {
            eprintln!("gems-shell: --promote requires --connect");
            return ExitCode::FAILURE;
        };
        if script_path.is_some() {
            eprintln!("gems-shell: --promote does not take a script");
            return ExitCode::FAILURE;
        }
        return run_remote(
            &addr, &user, timeout, retry, true, "", "", false, false, None,
        );
    }
    let Some(script_path) = script_path else {
        usage()
    };
    let text = match std::fs::read_to_string(&script_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gems-shell: cannot read {script_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if loadgen {
        let Some(addr) = connect else {
            eprintln!("gems-shell: --loadgen requires --connect");
            return ExitCode::FAILURE;
        };
        return run_loadgen(
            &addr,
            &user,
            timeout,
            &text,
            duration,
            depth,
            loadgen_json.as_deref(),
        );
    }

    if let Some(addr) = connect {
        // These flags need the database in this process; over the wire
        // they would silently act on the wrong side.
        if save_dir.is_some()
            || dot_spec.is_some()
            || parallel
            || data_dir.is_some()
            || !params.is_empty()
        {
            eprintln!(
                "gems-shell: --save, --dot, --parallel, --data-dir and --param \
                 are not supported with --connect (they act on the server's \
                 in-process state)"
            );
            return ExitCode::FAILURE;
        }
        return run_remote(
            &addr,
            &user,
            timeout,
            retry,
            false,
            &text,
            &script_path,
            check_only,
            json,
            out_path.as_deref(),
        );
    }

    let mut db = Database::new();
    if let Some(dir) = data_dir {
        db.set_data_dir(dir);
    }
    for (k, v) in params {
        db.set_param(k, v);
    }

    if json && !check_only {
        eprintln!("gems-shell: --json is only meaningful with check / --check-only");
        return ExitCode::FAILURE;
    }
    if check_only {
        return run_check(&mut db, &text, &script_path, json);
    }

    let outputs = if parallel {
        run_script(&mut db, &text).map(|r| r.outputs)
    } else {
        db.execute_script(&text)
    };
    match outputs {
        Ok(outputs) => {
            // `--out`: the last table result also goes to a CSV file.
            if let Some(path) = &out_path {
                let last_table = outputs.iter().rev().find_map(|o| match o {
                    StmtOutput::Table(t) => Some(t),
                    _ => None,
                });
                match last_table {
                    Some(t) => {
                        let mut buf = Vec::new();
                        if let Err(e) = graql::table::csv::write_csv(t, &mut buf).and_then(|()| {
                            std::fs::write(path, buf).map_err(|e| GraqlError::ingest(e.to_string()))
                        }) {
                            eprintln!("gems-shell: cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote last table result to {path}");
                    }
                    None => eprintln!("gems-shell: no table result to write to {path}"),
                }
            }
            // `--dot`: export a named result subgraph as Graphviz DOT.
            if let Some((name, file)) = &dot_spec {
                match (db.result_subgraph(name), db.graph_ref()) {
                    (Some(sg), Some(g)) => {
                        if let Err(e) = std::fs::write(file, sg.to_dot(g)) {
                            eprintln!("gems-shell: cannot write {file}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote subgraph {name} as DOT to {file}");
                    }
                    _ => eprintln!("gems-shell: no result subgraph named {name}"),
                }
            }
            // `--save`: persist the database (catalog DDL + CSVs).
            if let Some(dir) = &save_dir {
                if let Err(e) =
                    graql::core::save_dir(&db, std::path::Path::new(dir), &Faults::default())
                {
                    eprintln!("gems-shell: cannot save to {dir}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("saved database to {dir}");
            }
            for (i, out) in outputs.iter().enumerate() {
                match out {
                    StmtOutput::Created(name) => println!("[{i}] created {name}"),
                    StmtOutput::Ingested { table, rows } => {
                        println!("[{i}] ingested {rows} rows into {table}")
                    }
                    StmtOutput::Table(t) => {
                        println!("[{i}] table ({} rows):", t.n_rows());
                        print!("{}", t.render());
                    }
                    StmtOutput::Subgraph(sg) => match db.graph_ref() {
                        Some(g) => println!("[{i}] subgraph: {}", sg.summary(g)),
                        None => println!("[{i}] subgraph"),
                    },
                    StmtOutput::Pipelined => {
                        println!("[{i}] pipelined into the next statement")
                    }
                    StmtOutput::Profile(report) => {
                        println!("[{i}] profile:");
                        print!("{}", report.render());
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gems-shell: {e}");
            ExitCode::FAILURE
        }
    }
}
