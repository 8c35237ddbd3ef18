//! `serve-mixed`: a `cobra-serve` daemon driven by a closed-loop client.
//!
//! Each round starts a daemon with a fresh cache (start to `hello` is
//! set-up), then sends three phases over the connections, each
//! connection keeping [`WINDOW`] requests outstanding:
//!
//! 1. cold misses: every named design × profile at `--insts`, plus a few
//!    raw topologies from `search::catalog_seeds()` (admission analysis,
//!    then a cold run);
//! 2. tier-2 warm jobs: every named cell again at twice the length, so
//!    each restores the phase-1 checkpoint and simulates the remainder;
//! 3. tier-1 hits: repeats of finished keys, each one `.cbr` read.
//!
//! Phases are separated so every request's disposition is fixed. A
//! round is 33 misses, 30 warm jobs and 40 hits: the median is a miss
//! and the tail (ten requests beyond it) a warm job, each well inside
//! its population. A hit's latency is a chain of thread wake-ups, far
//! noisier run to run than a simulation, so hits sit below the median.
//! The seed picks the repeated hits and orders every phase.

use crate::stats::{median, tail, Reconcile};
use crate::{peak_rss_mb, shuffle, Config, Run};
use cobra_bench::jsonv::{self, Json};
use cobra_bench::runner::parallel_map_on;
use cobra_bench::serve::client::Client;
use cobra_bench::serve::exec::warmup_for;
use cobra_bench::serve::protocol::{
    report_bytes, report_json, submit_line, JobTarget, E_QUEUE_FULL,
};
use cobra_bench::serve::server::{Listen, ServeConfig, Server};
use cobra_bench::serve::{DEFAULT_INSTS_CAP, DEFAULT_QUEUE_CAP};
use cobra_core::composer::Design;
use cobra_uarch::{Core, CoreConfig};
use cobra_workloads::{spec17, SPEC17_NAMES};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// First argument that turns the benchmark binary into the daemon.
pub const DAEMON_FLAG: &str = "--serve-daemon";
/// Requests each connection keeps outstanding.
const WINDOW: usize = 4;
/// Raw-topology submissions per round: the catalog designs beyond the
/// paper's three.
const TOPOLOGIES: usize = 3;
/// Hit requests per round.
const HITS: usize = 40;
/// Tolerance for the latency decomposition and the worker capacity.
const SERVE_TOL_REL: f64 = 0.02;
const SERVE_TOL_ABS_S: f64 = 0.001;

/// Daemon worker threads: 2, or `nproc` if smaller.
pub fn workers(cfg: &Config) -> usize {
    cfg.threads.clamp(1, 2)
}

/// Client connections: 2, or `nproc` if smaller.
pub fn connections(cfg: &Config) -> usize {
    cfg.threads.clamp(1, 2)
}

/// The daemon: `--serve-daemon CACHE_DIR THREADS`. Binds an ephemeral
/// localhost port, prints it on standard output, waits for a line on
/// standard input, and serves until a client asks it to drain.
pub fn daemon_main(args: &[String]) -> std::process::ExitCode {
    let (Some(cache), Some(threads)) = (args.first(), args.get(1).and_then(|t| t.parse().ok()))
    else {
        eprintln!("usage: cobra-perfbench {DAEMON_FLAG} CACHE_DIR THREADS");
        return std::process::ExitCode::from(2);
    };
    let cfg = ServeConfig {
        listen: Listen::Tcp("127.0.0.1:0".into()),
        threads,
        queue_cap: DEFAULT_QUEUE_CAP,
        cache_dir: Some(cache.into()),
        insts_cap: DEFAULT_INSTS_CAP,
        progress_stride: None,
    };
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cobra-perfbench daemon: bind failed: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Some(addr) => println!("{addr}"),
        None => return std::process::ExitCode::FAILURE,
    }
    let mut go = String::new();
    if std::io::stdin().read_line(&mut go).is_err() {
        return std::process::ExitCode::FAILURE;
    }
    server.run();
    std::process::ExitCode::SUCCESS
}

/// A running daemon process; killed and reaped if dropped while alive.
struct Daemon {
    child: Child,
    listen: Listen,
    /// The daemon's standard input, written once to start it serving.
    gate: Option<ChildStdin>,
}

impl Daemon {
    fn start(cache: &std::path::Path, threads: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .arg(cache)
            .arg(threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let out = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(out).read_line(&mut line);
        let gate = child.stdin.take();
        let mut d = Daemon {
            child,
            listen: Listen::Tcp(line.trim().to_string()),
            gate,
        };
        match read {
            Ok(n) if n > 0 => Ok(d),
            _ => {
                d.kill();
                Err("daemon exited before announcing its port".into())
            }
        }
    }

    /// Lets the daemon start accepting connections.
    fn open(&mut self) -> Result<(), String> {
        let mut gate = self.gate.take().ok_or("daemon already open")?;
        gate.write_all(b"\n")
            .map_err(|e| format!("start daemon: {e}"))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the daemon to drain, reads each of the client's connections
    /// to its end, and waits for the daemon to exit.
    fn shutdown(mut self, mut conns: Vec<Client>) -> Result<(), String> {
        conns[0]
            .send("{\"op\":\"shutdown\"}")
            .map_err(|e| e.to_string())?;
        // The daemon closes every connection as it exits.
        for mut c in conns {
            while let Ok(Some(_)) = c.recv() {}
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// One request of the mix.
#[derive(Clone)]
struct Req {
    target: JobTarget,
    workload: String,
    insts: u64,
    expect: &'static str,
    /// Index into the direct reference reports.
    key: usize,
}

/// What the client saw for one request.
#[derive(Default, Clone)]
struct Seen {
    send: f64,
    accepted: f64,
    result: f64,
    wall_s: f64,
    cache: String,
    report: String,
    rejected: Option<String>,
    retries: u64,
}

/// The distinct jobs of the mix: `(target, workload, insts)`.
fn keys(cfg: &Config) -> Vec<(JobTarget, String, u64)> {
    let mut keys = Vec::new();
    for insts in [cfg.insts, 2 * cfg.insts] {
        for d in cobra_core::designs::all() {
            for w in SPEC17_NAMES {
                keys.push((JobTarget::Named(d.name.clone()), w.to_string(), insts));
            }
        }
    }
    let paper: Vec<String> = cobra_core::designs::all()
        .into_iter()
        .map(|d| d.topology)
        .collect();
    let seeds = cobra_bench::search::catalog_seeds();
    for (i, c) in seeds
        .into_iter()
        .filter(|c| !paper.contains(&c.topology))
        .take(TOPOLOGIES)
        .enumerate()
    {
        keys.push((
            JobTarget::Topology {
                topology: c.topology,
                ghist_bits: c.ghist_bits,
                lhist_entries: c.lhist_entries,
            },
            SPEC17_NAMES[(3 * i + 1) % SPEC17_NAMES.len()].to_string(),
            cfg.insts,
        ));
    }
    keys
}

fn design_of(target: &JobTarget) -> Design {
    match target {
        JobTarget::Named(n) => cobra_core::designs::by_name(n).expect("catalog design"),
        JobTarget::Topology {
            topology,
            ghist_bits,
            lhist_entries,
        } => cobra_core::designs::from_topology(topology, *ghist_bits, *lhist_entries),
    }
}

/// The three phases of one round, ordered by `seed`.
fn phases(cfg: &Config, keys: &[(JobTarget, String, u64)]) -> [Vec<Req>; 3] {
    let req = |key: usize, expect| Req {
        target: keys[key].0.clone(),
        workload: keys[key].1.clone(),
        insts: keys[key].2,
        expect,
        key,
    };
    let named = 3 * SPEC17_NAMES.len();
    let mut rng = cobra_sim::SplitMix64::new(cfg.seed.unwrap_or(0));
    let mut cold: Vec<Req> = (0..named)
        .chain(2 * named..keys.len())
        .map(|k| req(k, "miss"))
        .collect();
    let mut warm: Vec<Req> = (named..2 * named).map(|k| req(k, "warm")).collect();
    let mut hits: Vec<Req> = (0..keys.len()).map(|k| req(k, "hit")).collect();
    shuffle(&mut hits, &mut rng);
    hits.truncate(HITS);
    for p in [&mut cold, &mut warm] {
        shuffle(p, &mut rng);
    }
    [cold, warm, hits]
}

/// Sends `reqs` over the connections in a closed loop, returning what
/// came back for each, with times relative to `t0`.
fn drive(
    conns: &mut [Client],
    reqs: &[Req],
    id_base: u64,
    t0: Instant,
) -> Result<Vec<Seen>, String> {
    let next = AtomicUsize::new(0);
    let seen = Mutex::new(vec![Seen::default(); reqs.len()]);
    let (next_ref, seen_ref) = (&next, &seen);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                let (next, seen) = (next_ref, seen_ref);
                s.spawn(move || -> Result<(), String> {
                    let mut outstanding = 0usize;
                    loop {
                        while outstanding < WINDOW {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= reqs.len() {
                                break;
                            }
                            let r = &reqs[i];
                            let line =
                                submit_line(id_base + i as u64, &r.target, &r.workload, r.insts);
                            seen.lock().expect("seen lock")[i].send = t0.elapsed().as_secs_f64();
                            c.send(&line).map_err(|e| e.to_string())?;
                            outstanding += 1;
                        }
                        if outstanding == 0 {
                            return Ok(());
                        }
                        let line = c
                            .recv()
                            .map_err(|e| e.to_string())?
                            .ok_or("daemon closed the connection")?;
                        let now = t0.elapsed().as_secs_f64();
                        let v =
                            jsonv::parse(&line).map_err(|e| format!("bad event {line:?}: {e}"))?;
                        let ev = v.get("ev").and_then(Json::as_str);
                        let Some(id) = v.get("id").and_then(Json::as_u64) else {
                            if ev == Some("rejected") {
                                return Err(format!("daemon rejected a request line: {line}"));
                            }
                            continue;
                        };
                        let Some(i) = id
                            .checked_sub(id_base)
                            .map(|i| i as usize)
                            .filter(|&i| i < reqs.len())
                        else {
                            return Err(format!("event for an unknown request: {line}"));
                        };
                        let mut seen = seen.lock().expect("seen lock");
                        match ev {
                            Some("accepted") => seen[i].accepted = now,
                            Some("result") => {
                                seen[i].result = now;
                                seen[i].wall_s =
                                    v.get("wall_s").and_then(Json::as_num).unwrap_or(0.0);
                                seen[i].cache = v
                                    .get("cache")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string();
                                seen[i].report = report_bytes(&line).unwrap_or("").to_string();
                                outstanding -= 1;
                            }
                            Some("rejected")
                                if v.get("code").and_then(Json::as_str) == Some(E_QUEUE_FULL) =>
                            {
                                seen[i].retries += 1;
                                let ms =
                                    v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(10);
                                drop(seen);
                                std::thread::sleep(Duration::from_millis(ms));
                                let r = &reqs[i];
                                c.send(&submit_line(id, &r.target, &r.workload, r.insts))
                                    .map_err(|e| e.to_string())?;
                            }
                            Some("rejected") => {
                                seen[i].rejected = Some(line.clone());
                                seen[i].result = now;
                                outstanding -= 1;
                            }
                            _ => {}
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect::<Vec<_>>()
    });
    for r in results {
        r?;
    }
    Ok(seen.into_inner().expect("seen lock"))
}

/// Requests the daemon's `stats` event.
fn stats(c: &mut Client) -> Result<Json, String> {
    c.send("{\"op\":\"stats\"}").map_err(|e| e.to_string())?;
    let (_, v) = c
        .recv_until("stats", |_, _| {})
        .map_err(|e| e.to_string())?
        .ok_or("daemon closed before stats")?;
    Ok(v)
}

/// One round's observations.
struct Round {
    wall_s: f64,
    seen: Vec<(Req, Seen)>,
    stats: Json,
    rss_mb: f64,
}

/// Starts a daemon on the cache at `cache` and opens the client's
/// connections, waiting for each `hello`: the set-up a client pays
/// before its first request. Returns the daemon, the connections and
/// the seconds that took.
///
/// The connections are queued before the daemon starts accepting. Its
/// accept loop sleeps 25 ms whenever nothing is queued, so whether a
/// connection landed just before or just after a poll would otherwise
/// decide `setup_s`.
fn start(cfg: &Config, cache: &std::path::Path) -> Result<(Daemon, Vec<Client>, f64), String> {
    let t = Instant::now();
    let mut daemon = Daemon::start(cache, workers(cfg))?;
    let mut conns = (0..connections(cfg))
        .map(|_| Client::connect(&daemon.listen).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    daemon.open()?;
    for c in &mut conns {
        c.recv_until("hello", |_, _| {})
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed before hello")?;
    }
    Ok((daemon, conns, t.elapsed().as_secs_f64()))
}

fn round(cfg: &Config, n: usize, phases: &[Vec<Req>; 3]) -> Result<Round, String> {
    let cache = cfg.work.join(format!("cache{n}"));
    let (daemon, mut conns, _) = start(cfg, &cache)?;
    let t0 = Instant::now();
    let mut seen = Vec::new();
    let mut base = 0u64;
    for p in phases {
        let got = drive(&mut conns, p, base, t0)?;
        base += p.len() as u64;
        seen.extend(p.iter().cloned().zip(got));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = stats(&mut conns[0])?;
    let rss_mb = peak_rss_mb(&daemon.child.id().to_string());
    daemon.shutdown(conns)?;
    let _ = std::fs::remove_dir_all(&cache);
    Ok(Round {
        wall_s,
        seen,
        stats,
        rss_mb,
    })
}

/// Direct in-process reports for every key, the bytes served reports
/// must equal.
fn direct(cfg: &Config, keys: &[(JobTarget, String, u64)]) -> Vec<String> {
    parallel_map_on(cfg.threads, keys, |_, (target, workload, insts)| {
        let design = design_of(target);
        let spec = spec17(workload);
        let mut core = Core::new(&design, CoreConfig::boom_4wide(), spec.build())
            .expect("admitted designs compose");
        report_json(&core.run_with_warmup(warmup_for(*insts), *insts, &spec.name))
    })
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get("cache")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Runs `serve-mixed`.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let keys = keys(cfg);
    let want = direct(cfg, &keys);
    let phases = phases(cfg, &keys);
    let mut run = Run::default();
    // `setup_s` is the median of daemon starts made before the rounds:
    // a start right after a round competes with that round's cache
    // clean-up and drain.
    let mut setups = Vec::new();
    for n in 0..crate::SETUP_REPS {
        let cache = cfg.work.join(format!("probe{n}"));
        let (daemon, conns, s) = start(cfg, &cache)?;
        setups.push(s);
        daemon.shutdown(conns)?;
        let _ = std::fs::remove_dir_all(&cache);
    }
    let mut rounds = Vec::new();
    let began = Instant::now();
    loop {
        rounds.push(round(cfg, rounds.len(), &phases)?);
        if began.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let total_s: f64 = rounds.iter().map(|r| r.wall_s).sum();

    let mut lat_p50 = Vec::new();
    let mut lat_tail = Vec::new();
    let mut mips = Vec::new();
    let mut done = 0usize;
    let (mut admit, mut queue) = (Vec::new(), Vec::new());
    let mut exec: [Vec<f64>; 3] = Default::default();
    let (mut lat_sum, mut parts_sum, mut exec_sum, mut capacity) = (0.0, 0.0, 0.0, 0.0);
    let mut retries = 0u64;
    let mut tail_pct = 0.0;
    for r in &rounds {
        let mut lat = Vec::new();
        let mut insts = 0u64;
        for (req, s) in &r.seen {
            run.attempted += 1;
            let bad = if let Some(line) = &s.rejected {
                Some(format!("refused: {line}"))
            } else if s.cache != req.expect {
                Some(format!(
                    "served as {} where {} was due",
                    s.cache, req.expect
                ))
            } else if s.report != want[req.key] {
                Some("report differs from the direct run".to_string())
            } else {
                None
            };
            if let Some(why) = bad {
                run.failed += 1;
                run.error(format!(
                    "{} on {} at {}: {why}",
                    req.target.label(),
                    req.workload,
                    req.insts
                ));
                continue;
            }
            done += 1;
            retries += s.retries;
            insts += req.insts;
            let l = s.result - s.send;
            lat.push(l * 1e3);
            admit.push((s.accepted - s.send) * 1e3);
            let q = s.result - s.accepted - s.wall_s;
            queue.push(q * 1e3);
            let slot = ["hit", "warm", "miss"]
                .iter()
                .position(|c| *c == s.cache)
                .expect("checked above");
            exec[slot].push(s.wall_s * 1e3);
            lat_sum += l;
            parts_sum += (s.accepted - s.send) + q.max(0.0) + s.wall_s;
            exec_sum += s.wall_s;
        }
        capacity += workers(cfg) as f64 * r.wall_s;
        lat_p50.push(median(&lat));
        if let Some((v, pct)) = tail(&lat) {
            lat_tail.push(v);
            tail_pct = pct;
        }
        mips.push(insts as f64 / r.wall_s / 1e6);
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let per_round = phases.iter().map(Vec::len).sum::<usize>();
    run.notes.push(format!(
        "rounds {} round_walls_s {walls:?} requests_per_round {per_round} tail_percentile {tail_pct:.1} \
         workers {} connections {} window {WINDOW}",
        rounds.len(),
        workers(cfg),
        connections(cfg)
    ));
    run.notes.push(format!(
        "setup: {} daemon starts to hello, from {:.6}s to {:.6}s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    let decomposition = Reconcile {
        what: "admission + queue + exec = request latency".into(),
        wall_s: lat_sum,
        parts_s: parts_sum,
        rel: SERVE_TOL_REL,
        abs_s: SERVE_TOL_ABS_S,
    };
    run.notes.push(decomposition.line());
    if !decomposition.holds() {
        run.error(decomposition.line());
    }
    let fits = exec_sum <= capacity * (1.0 + SERVE_TOL_REL);
    let line = format!(
        "reconcile exec time within worker capacity: exec {exec_sum:.6}s capacity {capacity:.6}s {}",
        if fits { "ok" } else { "FAILED" }
    );
    run.notes.push(line.clone());
    if !fits {
        run.error(line);
    }
    if cfg.trace {
        let last = rounds.last().expect("at least one round");
        let total =
            stat(&last.stats, "hits") + stat(&last.stats, "warm") + stat(&last.stats, "miss");
        run.set("serve.admit_ms_p50", median(&admit));
        run.set("serve.queue_ms_p50", median(&queue));
        run.set("serve.exec_ms_p50.hit", median(&exec[0]));
        run.set("serve.exec_ms_p50.warm", median(&exec[1]));
        run.set("serve.exec_ms_p50.miss", median(&exec[2]));
        run.set(
            "serve.hit_ratio",
            stat(&last.stats, "hits") / total.max(1.0),
        );
        run.set(
            "serve.warm_ratio",
            stat(&last.stats, "warm") / total.max(1.0),
        );
        run.set("serve.retries", retries as f64);
        run.set("serve.cache_stores", stat(&last.stats, "stores"));
        run.set("serve.cache_rejected", stat(&last.stats, "rejected"));
        let all_exec: Vec<f64> = exec.iter().flatten().map(|ms| ms / 1e3).collect();
        run.set("runner.cell_s_p50", median(&all_exec));
        run.set(
            "runner.cell_s_max",
            all_exec.iter().copied().fold(0.0, f64::max),
        );
        run.set("runner.busy_ratio", exec_sum / capacity);
        let mut designs: Vec<Design> = cobra_core::designs::all();
        designs.extend(
            keys.iter()
                .filter(|k| matches!(k.0, JobTarget::Topology { .. }))
                .map(|k| design_of(&k.0)),
        );
        run.set(
            "analysis.ms_per_topology",
            crate::grid::analysis_ms(&designs)?,
        );
        run.notes
            .push("tracing overhead: 0s, the client records the same events traced or not".into());
    } else {
        run.set("setup_s", median(&setups));
        run.set("wall_s", median(&walls));
        run.set("sim_mips", median(&mips));
        run.set("req_p50_ms", median(&lat_p50));
        run.set("req_tail_ms", median(&lat_tail));
        run.set("req_per_s", done as f64 / total_s);
        run.set(
            "peak_rss_mb",
            rounds.iter().map(|r| r.rss_mb).fold(0.0, f64::max),
        );
    }
    Ok(run)
}
