//! The `cobra-serve` daemon proper: listener, admission, fair
//! scheduling, and the sharded worker pool.
//!
//! Threading model, all std:
//!
//! - one *acceptor* loop ([`Server::run`]) polls a nonblocking listener;
//! - per connection, a *reader* thread parses and admits requests and a
//!   *writer* thread drains that connection's event channel (admission
//!   and workers never block on a slow client);
//! - `threads` *worker* threads pull jobs from the shared queue, run
//!   them through [`super::exec::execute_job`], and post `result`
//!   events back onto the owning connection's channel.
//!
//! Admission performs every cheap validation — request shape, workload
//! name, design/topology lint via the static analyzer — on the reader
//! thread, so malformed jobs answer with a precise reject code
//! (`E_PARSE`, `E_WORKLOAD`, `E_TOPOLOGY` with C-code diagnostics,
//! `E_INSTS`) instead of a worker panic. The queue is bounded; once it
//! fills, submits are rejected with `E_QUEUE_FULL` and a `retry_after_ms`
//! hint derived from an EMA of recent job wall times. Scheduling is
//! round-robin across connections, so one client pipelining the whole
//! fig. 10 grid cannot starve another's single job.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cobra_core::analysis::gate_topology;
use cobra_core::designs;
use cobra_core::ComposeError;
use cobra_uarch::CoreConfig;

use super::cache::WarmCache;
use super::exec::{execute_job, CacheDisposition};
use super::protocol::{
    self, JobTarget, Request, SubmitReq, E_DRAINING, E_INSTS, E_PARSE, E_QUEUE_FULL, E_TOPOLOGY,
    E_WORKLOAD,
};
use crate::run::RunSpec;
use crate::{workload_by_name, RunConfig};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP endpoint, `host:port` (port 0 picks an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path (removed on bind and on shutdown).
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Listen {
    /// Parses `tcp:HOST:PORT` or `unix:PATH`.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Listen, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("tcp endpoint {addr:?} is not HOST:PORT"));
            }
            return Ok(Listen::Tcp(addr.to_string()));
        }
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix endpoint needs a path".into());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        Err(format!(
            "listen endpoint {s:?} must be tcp:HOST:PORT or unix:PATH"
        ))
    }
}

/// Daemon configuration, fully resolved (CLI over environment over
/// defaults) before [`Server::bind`].
#[derive(Debug)]
pub struct ServeConfig {
    /// Listen endpoint.
    pub listen: Listen,
    /// Worker pool size (the sharding width).
    pub threads: usize,
    /// Bounded admission-queue capacity, across all connections.
    pub queue_cap: usize,
    /// Warm-cache root; `None` disables both tiers.
    pub cache_dir: Option<PathBuf>,
    /// Largest accepted `insts` per job.
    pub insts_cap: u64,
    /// Progress-event stride in committed instructions; `None` derives
    /// `insts / 4` per job, `Some(0)` disables progress events.
    pub progress_stride: Option<u64>,
}

/// One admitted job, queued for a worker. Only owned data — the worker
/// materializes the `Design` and workload stream itself.
struct QueuedJob {
    conn: u64,
    id: u64,
    target: JobTarget,
    workload: String,
    insts: u64,
    out: mpsc::Sender<String>,
}

/// Round-robin scheduler state: per-connection FIFO queues and a cursor.
#[derive(Default)]
struct SchedState {
    per_conn: BTreeMap<u64, VecDeque<QueuedJob>>,
    cursor: u64,
    total: usize,
}

impl SchedState {
    fn push(&mut self, job: QueuedJob) {
        self.per_conn.entry(job.conn).or_default().push_back(job);
        self.total += 1;
    }

    /// Pops the next job, strictly round-robin by connection id: the
    /// first nonempty queue with id greater than the cursor, wrapping.
    fn take_next(&mut self) -> Option<QueuedJob> {
        let pick = self
            .per_conn
            .range(self.cursor + 1..)
            .chain(self.per_conn.range(..=self.cursor))
            .find(|(_, q)| !q.is_empty())
            .map(|(&id, _)| id)?;
        let q = self.per_conn.get_mut(&pick).expect("picked key exists");
        let job = q.pop_front().expect("picked queue is nonempty");
        if q.is_empty() {
            self.per_conn.remove(&pick);
        }
        self.cursor = pick;
        self.total -= 1;
        Some(job)
    }

    /// Drops all pending jobs for a disconnected client.
    fn drop_conn(&mut self, conn: u64) {
        if let Some(q) = self.per_conn.remove(&conn) {
            self.total -= q.len();
        }
    }
}

/// State shared between the acceptor, readers, and workers.
struct Shared {
    queue: Mutex<SchedState>,
    cv: Condvar,
    draining: AtomicBool,
    jobs_done: AtomicU64,
    jobs_running: AtomicUsize,
    /// EMA of job wall time in milliseconds, seeding `retry_after_ms`.
    ema_wall_ms: AtomicU64,
    cache: Option<WarmCache>,
    /// The daemon's knobs (see [`Server::bind_with`]).
    rc: RunConfig,
}

impl Shared {
    fn stats_json(&self) -> String {
        let q = self.queue.lock().expect("queue mutex");
        let cache = match &self.cache {
            Some(c) => c.stats.to_json(),
            None => "null".to_string(),
        };
        format!(
            "{{\"ev\":\"stats\",\"queued\":{},\"running\":{},\"done\":{},\
             \"threads\":{},\"cache\":{cache}}}",
            q.total,
            self.jobs_running.load(Ordering::Relaxed),
            self.jobs_done.load(Ordering::Relaxed),
            self.rc.threads
        )
    }
}

/// A handle that asks a running [`Server`] to drain: stop admitting,
/// finish queued jobs, close connections, return from `run`.
#[derive(Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Initiates the drain. Idempotent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn split(&self) -> std::io::Result<(Conn, Conn)> {
        match self {
            Conn::Tcp(s) => Ok((Conn::Tcp(s.try_clone()?), Conn::Tcp(s.try_clone()?))),
            #[cfg(unix)]
            Conn::Unix(s) => Ok((Conn::Unix(s.try_clone()?), Conn::Unix(s.try_clone()?))),
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// [`bind_with`](Self::bind_with) `cfg` over the other knobs, resolved
    /// from the environment here (the entry point for in-process drivers).
    ///
    /// # Errors
    ///
    /// As [`bind_with`](Self::bind_with).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let rc = RunConfig {
            threads: cfg.threads,
            serve_queue: cfg.queue_cap,
            serve_cache: cfg.cache_dir,
            serve_insts_cap: cfg.insts_cap,
            serve_progress: cfg.progress_stride,
            ..RunConfig::from_env()
        };
        Self::bind_with(&cfg.listen, rc)
    }

    /// Binds `listen` and opens `rc.serve_cache` (if set). `rc` also sets
    /// the pool size, queue bound, caps, progress stride, the `insts` of
    /// jobs that name none, and every job's packet path and profiler.
    ///
    /// # Errors
    ///
    /// Bind or cache-directory failures.
    pub fn bind_with(listen: &Listen, rc: RunConfig) -> std::io::Result<Server> {
        let cache = match &rc.serve_cache {
            Some(dir) => Some(WarmCache::open(dir)?),
            None => None,
        };
        let listener = match listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l, path.clone())
            }
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                queue: Mutex::new(SchedState::default()),
                cv: Condvar::new(),
                draining: AtomicBool::new(false),
                jobs_done: AtomicU64::new(0),
                jobs_running: AtomicUsize::new(0),
                ema_wall_ms: AtomicU64::new(0),
                cache,
                rc: RunConfig {
                    threads: rc.threads.max(1),
                    serve_queue: rc.serve_queue.max(1),
                    serve_insts_cap: rc.serve_insts_cap.max(1),
                    ..rc
                },
            }),
        })
    }

    /// The bound TCP address (for `tcp:…:0` ephemeral-port tests).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(..) => None,
        }
    }

    /// A handle that can drain this server from another thread (or a
    /// signal watcher).
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon until drained. Blocks the calling thread.
    pub fn run(self) {
        let shared = self.shared;
        let workers: Vec<_> = (0..shared.rc.threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cobra-serve-w{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker")
            })
            .collect();

        let mut next_conn: u64 = 0;
        loop {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    s.set_nodelay(true).ok();
                    Conn::Tcp(s)
                }),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(conn) => {
                    next_conn += 1;
                    let conn_id = next_conn;
                    let sh = Arc::clone(&shared);
                    match conn.split() {
                        Ok((r, w)) => {
                            std::thread::Builder::new()
                                .name(format!("cobra-serve-c{conn_id}"))
                                .spawn(move || connection_loop(&sh, conn_id, r, w))
                                .expect("spawn connection thread");
                        }
                        Err(e) => eprintln!("[cobra-serve] dropping connection: {e}"),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    eprintln!("[cobra-serve] accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }

        // Drain: workers exit once the queue is empty and draining is
        // set; reader threads exit on client EOF (detached).
        shared.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        eprintln!(
            "[cobra-serve] drained after {} jobs",
            shared.jobs_done.load(Ordering::Relaxed)
        );
    }
}

/// Reader side of one connection: parse, validate, admit.
fn connection_loop(shared: &Arc<Shared>, conn_id: u64, reader: Conn, mut writer: Conn) {
    let (tx, rx) = mpsc::channel::<String>();
    // Writer thread: the single owner of the socket's write half. It
    // exits when every sender (admission + any queued/running jobs on
    // this connection) has dropped.
    let writer_thread = std::thread::Builder::new()
        .name(format!("cobra-serve-wr{conn_id}"))
        .spawn(move || {
            while let Ok(line) = rx.recv() {
                if writer.write_all(line.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                    break;
                }
                let _ = writer.flush();
            }
            let _ = writer.flush();
        })
        .expect("spawn writer thread");

    let send = |line: String| {
        let _ = tx.send(line);
    };
    send(protocol::ev_hello(
        shared.rc.threads,
        shared.rc.serve_queue,
        shared.rc.serve_insts_cap,
    ));

    let mut lines = BufReader::new(reader).lines();
    let mut said_bye = false;
    while let Some(Ok(line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match protocol::parse_request(line) {
            Err(msg) => send(protocol::ev_rejected(None, E_PARSE, &msg, None, None)),
            Ok(Request::Hello) => send(protocol::ev_hello(
                shared.rc.threads,
                shared.rc.serve_queue,
                shared.rc.serve_insts_cap,
            )),
            Ok(Request::Ping) => send(protocol::ev_pong()),
            Ok(Request::Stats) => send(shared.stats_json()),
            Ok(Request::Shutdown) => {
                send(protocol::ev_bye());
                said_bye = true;
                shared.draining.store(true, Ordering::SeqCst);
                shared.cv.notify_all();
                break;
            }
            Ok(Request::Submit(req)) => admit(shared, conn_id, req, &tx),
        }
    }
    if !said_bye && shared.draining.load(Ordering::SeqCst) {
        send(protocol::ev_bye());
    }
    // Client hung up (or we are draining): discard its pending jobs so
    // workers don't burn time on results nobody will read. Running jobs
    // finish; their sends fail silently into the closed channel.
    shared.queue.lock().expect("queue mutex").drop_conn(conn_id);
    drop(tx);
    let _ = writer_thread.join();
}

/// Validates one submit and either queues it or answers with the precise
/// reject code.
fn admit(shared: &Arc<Shared>, conn_id: u64, req: SubmitReq, tx: &mpsc::Sender<String>) {
    let send = |line: String| {
        let _ = tx.send(line);
    };
    let id = req.id;
    if shared.draining.load(Ordering::SeqCst) {
        send(protocol::ev_rejected(
            Some(id),
            E_DRAINING,
            "server is draining",
            None,
            None,
        ));
        return;
    }
    let insts = req.insts.unwrap_or(shared.rc.insts);
    if insts == 0 || insts > shared.rc.serve_insts_cap {
        send(protocol::ev_rejected(
            Some(id),
            E_INSTS,
            &format!("insts {} outside 1..={}", insts, shared.rc.serve_insts_cap),
            None,
            None,
        ));
        return;
    }
    if workload_by_name(&req.workload).is_none() {
        send(protocol::ev_rejected(
            Some(id),
            E_WORKLOAD,
            &format!("unknown workload {:?}", req.workload),
            None,
            None,
        ));
        return;
    }
    // Lint the target on the reader thread: a bad topology answers with
    // C-code diagnostics here, never a worker panic later.
    match &req.target {
        JobTarget::Named(name) => {
            if designs::by_name(name).is_none() {
                send(protocol::ev_rejected(
                    Some(id),
                    E_TOPOLOGY,
                    &format!("unknown design {name:?}; see `cobra-bench --list`"),
                    None,
                    None,
                ));
                return;
            }
        }
        JobTarget::Topology {
            topology,
            ghist_bits,
            lhist_entries,
        } => {
            let design = designs::from_topology(topology, *ghist_bits, *lhist_entries);
            let width = CoreConfig::boom_4wide().fetch_slots();
            match gate_topology(
                &design.name,
                topology,
                &design.registry,
                *ghist_bits,
                *lhist_entries,
                width,
            ) {
                Ok(_) => {}
                Err(ComposeError::Parse { reason, span }) => {
                    send(protocol::ev_rejected(
                        Some(id),
                        E_TOPOLOGY,
                        &format!("parse error at {}..{}: {reason}", span.start, span.end),
                        None,
                        None,
                    ));
                    return;
                }
                Err(ComposeError::Analysis { diagnostics }) => {
                    let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_json()).collect();
                    send(protocol::ev_rejected(
                        Some(id),
                        E_TOPOLOGY,
                        &format!("{} lint error(s)", rendered.len()),
                        None,
                        Some(&format!("[{}]", rendered.join(","))),
                    ));
                    return;
                }
                Err(e) => {
                    send(protocol::ev_rejected(
                        Some(id),
                        E_TOPOLOGY,
                        &e.to_string(),
                        None,
                        None,
                    ));
                    return;
                }
            }
        }
    }
    let mut q = shared.queue.lock().expect("queue mutex");
    if q.total >= shared.rc.serve_queue {
        let retry = shared.ema_wall_ms.load(Ordering::Relaxed).max(50);
        drop(q);
        send(protocol::ev_rejected(
            Some(id),
            E_QUEUE_FULL,
            "admission queue is full",
            Some(retry),
            None,
        ));
        return;
    }
    let depth = q.total;
    q.push(QueuedJob {
        conn: conn_id,
        id,
        target: req.target,
        workload: req.workload,
        insts,
        out: tx.clone(),
    });
    drop(q);
    shared.cv.notify_one();
    send(protocol::ev_accepted(id, depth));
}

/// One worker: pull, materialize, execute, post the result.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue mutex");
            loop {
                if let Some(job) = q.take_next() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(q, Duration::from_millis(200))
                    .expect("queue mutex");
                q = guard;
            }
        };
        let Some(job) = job else { return };
        shared.jobs_running.fetch_add(1, Ordering::Relaxed);
        let design = match &job.target {
            JobTarget::Named(name) => designs::by_name(name).expect("admission checked the name"),
            JobTarget::Topology {
                topology,
                ghist_bits,
                lhist_entries,
            } => designs::from_topology(topology, *ghist_bits, *lhist_entries),
        };
        let spec = workload_by_name(&job.workload).expect("admission checked the workload");
        let target_insts = super::exec::warmup_for(job.insts) + job.insts;
        let stride = match shared.rc.serve_progress {
            Some(s) => s,
            None => (job.insts / 4).max(1),
        };
        let progress: Option<(u64, super::exec::ProgressFn)> = if stride == 0 {
            None
        } else {
            let out = job.out.clone();
            let id = job.id;
            Some((
                stride,
                Arc::new(move |insts, _cycles| {
                    let _ = out.send(protocol::ev_progress(id, insts, target_insts));
                }),
            ))
        };
        let outcome = execute_job(
            RunSpec {
                progress,
                ..shared
                    .rc
                    .run_spec(&design, CoreConfig::boom_4wide(), &spec, job.insts)
            },
            shared.cache.as_ref(),
        );
        if shared.cache.is_none() {
            debug_assert_eq!(outcome.cache, CacheDisposition::Miss);
        }
        let wall_ms = (outcome.wall_s * 1000.0) as u64;
        // EMA with alpha 1/4, seeding retry_after_ms hints.
        let prev = shared.ema_wall_ms.load(Ordering::Relaxed);
        let next = if prev == 0 {
            wall_ms
        } else {
            (3 * prev + wall_ms) / 4
        };
        shared.ema_wall_ms.store(next.max(1), Ordering::Relaxed);
        // Count the job done *before* emitting the result, so a client
        // that reacts to its result with a `stats` request observes it.
        shared.jobs_running.fetch_sub(1, Ordering::Relaxed);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        let _ = job.out.send(protocol::ev_result(
            job.id,
            outcome.cache.as_str(),
            outcome.wall_s,
            &outcome.report,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(conn: u64, id: u64) -> QueuedJob {
        let (tx, _rx) = mpsc::channel();
        QueuedJob {
            conn,
            id,
            target: JobTarget::Named("B2".into()),
            workload: "gcc".into(),
            insts: 1,
            out: tx,
        }
    }

    #[test]
    fn scheduling_is_round_robin_across_connections() {
        let mut s = SchedState::default();
        // Connection 1 pipelines four jobs before connection 2 submits
        // its two; service must still alternate.
        for id in 0..4 {
            s.push(job(1, id));
        }
        s.push(job(2, 10));
        s.push(job(2, 11));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| s.take_next())
            .map(|j| (j.conn, j.id))
            .collect();
        assert_eq!(
            order,
            vec![(1, 0), (2, 10), (1, 1), (2, 11), (1, 2), (1, 3)]
        );
        assert_eq!(s.total, 0);
        assert!(s.take_next().is_none());
    }

    #[test]
    fn drop_conn_discards_pending_jobs() {
        let mut s = SchedState::default();
        s.push(job(1, 0));
        s.push(job(2, 1));
        s.push(job(1, 2));
        s.drop_conn(1);
        assert_eq!(s.total, 1);
        let j = s.take_next().unwrap();
        assert_eq!((j.conn, j.id), (2, 1));
        assert!(s.take_next().is_none());
    }

    #[test]
    fn listen_parse_accepts_both_schemes() {
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:0").unwrap(),
            Listen::Tcp("127.0.0.1:0".into())
        );
        #[cfg(unix)]
        assert_eq!(
            Listen::parse("unix:/tmp/x.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Listen::parse("udp:1.2.3.4:5").is_err());
        assert!(Listen::parse("tcp:nohostport").is_err());
        #[cfg(unix)]
        assert!(Listen::parse("unix:").is_err());
    }
}
