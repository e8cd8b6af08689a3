//! The repository benchmark: one 3-site COMMU `esrd` cluster per pass,
//! driven from this process by two client threads, each holding one
//! client-plane connection pinned to site 0 or site 1 (site 2 only
//! receives replication). See `README.md` in this directory.
//!
//! ```text
//! perfbench --esrd <path> --out <dir> --workload <name> --seed <n>
//!           --seconds <n> --trace <0|1> [--ckpt-bytes <n>]
//! ```
//!
//! `--trace 0` runs one untraced pass and reports the end-to-end
//! metrics. `--trace 1` runs an untraced pass, then a traced pass of the
//! same inputs on a fresh cluster, then the in-process layer ledger, and
//! reports the per-layer metrics plus the tracing overhead. Both end
//! with one JSON line on stdout; every other stdout line is a named
//! metric with its unit and sample count, or run context.

mod cluster;
mod ledger;
mod load;
mod scrape;
mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use esr_workload::KeyDist;

use cluster::{Cluster, ProcStat, SITES};
use ledger::Ledger;
use load::{Call, Mix, Outcome, Pace, Phase};
use scrape::{Scrape, Stages};
use stats::{json_num, json_str, median, Metrics};

/// The end-to-end metrics `BENCHMARK.json` gates, carried by the JSON
/// line of every `--trace 0` run. Only metrics that every listed
/// workload reports and whose run-to-run spread stays inside a bound on
/// a shared 2-vCPU host qualify; the time-based ones (throughput,
/// latency, CPU per op) drift too much there and are reported by name
/// only (see README.md).
const END_TO_END: [&str; 3] = ["rss_peak_mb", "disk_bytes_per_op", "setup_s"];

/// Client threads; thread `t` is pinned to site `CLIENT_SITES[t]`.
const CLIENT_SITES: [usize; 2] = [0, 1];

/// Independent clusters per pass, each running `1/REPS` of the ops;
/// the end-to-end metrics are the medians over them.
const REPS: usize = 3;

/// Cluster spawns per repetition; `setup_s` takes the median of all
/// spawns of the pass.
const SETUP_REPS: usize = 7;

/// Ops the in-process ledger replays (the first of the plan).
const LEDGER_OPS: usize = 20_000;

/// ETs whose spans a traced pass merges into critical paths, spread
/// over the most recent acknowledged ones (older spans are evicted from
/// the bounded rings).
const SPAN_SAMPLE: usize = 200;
const SPAN_RECENT: usize = 4_000;

/// Offered rate of `mixed-open`, ops/s over both threads.
const OPEN_RATE: u64 = 4_000;

/// The default key mix: zipf 0.99 over 256 objects, updates only.
const HOT: Mix = Mix {
    objects: 256,
    dist: KeyDist::Zipf(0.99),
    read_pct: 0,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    UpdateClosed,
    ReadClosed,
    MixedOpen,
    Restart,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "update-closed" => Self::UpdateClosed,
            "read-closed" => Self::ReadClosed,
            "mixed-open" => Self::MixedOpen,
            "restart" => Self::Restart,
            _ => return None,
        })
    }

    /// The phases of a pass, `(phase id, ops per thread, mix)`, sized
    /// from `--seconds`. Op counts are fixed rather than the run being
    /// timed, so that history and memory do not grow with speed; on
    /// today's code each workload measures for about `seconds`.
    fn phases(self, seconds: usize) -> Vec<(u64, usize, Mix)> {
        match self {
            Self::UpdateClosed => vec![(2, seconds * 4_500, HOT)],
            Self::ReadClosed => vec![(
                2,
                seconds * 15_000,
                Mix {
                    read_pct: 95,
                    ..HOT
                },
            )],
            Self::MixedOpen => vec![(
                2,
                seconds * OPEN_RATE as usize / 2,
                Mix {
                    read_pct: 50,
                    ..HOT
                },
            )],
            Self::Restart => vec![
                // Preload (before the measured phases), suffix past the
                // cut, down phase.
                (
                    1,
                    seconds * 1_500,
                    Mix {
                        objects: 65_536,
                        dist: KeyDist::Uniform,
                        read_pct: 0,
                    },
                ),
                (2, seconds * 1_000, HOT),
                (3, seconds * 1_000, HOT),
            ],
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    esrd: PathBuf,
    /// Extra daemon flags: `--ckpt-bytes <n>` turns on esrd's byte
    /// policy (off by default, as in every listed workload).
    esrd_args: Vec<String>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("{k} is required"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: num("--trace")? != 0,
        esrd: PathBuf::from(get("--esrd")?),
        esrd_args: match kv.get("--ckpt-bytes") {
            Some(_) => vec!["--ckpt-bytes".into(), num("--ckpt-bytes")?.to_string()],
            None => Vec::new(),
        },
        out: PathBuf::from(get("--out")?),
    })
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    e2e: Metrics,
    layer: Metrics,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Per-site CPU over the measured window, and end-of-run memory.
    sites: Vec<ProcStat>,
    /// The traced pass's spans, metric deltas and critical paths.
    trace: String,
}

/// State shared by the steps of one pass.
struct Ctx<'a> {
    args: &'a Args,
    traced: bool,
    /// Zero point of every span timestamp of the pass.
    origin: Instant,
    /// Benchmark-side spans outside the client threads.
    calls: Vec<Call>,
    run_dir: PathBuf,
    ticks: u64,
    /// Current repetition (varies the plan's seed).
    rep: usize,
    /// Spawn-to-serving time of every cluster spawned in the pass.
    spawns: Vec<f64>,
}

impl Ctx<'_> {
    fn span(&mut self, name: &'static str, id: u64, started: Instant) {
        if self.traced {
            let ns = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
            self.calls.push(Call {
                name,
                thread: u32::MAX,
                id,
                start_ns: ns(started),
                end_ns: ns(Instant::now()),
            });
        }
    }

    /// Spawns `SETUP_REPS` clusters, records their spawn-to-serving
    /// times, and keeps the last.
    fn setup(&mut self) -> io::Result<Cluster> {
        let mut kept = None;
        for rep in 0..SETUP_REPS {
            drop(kept.take()); // tear the previous cluster down first
            let started = Instant::now();
            let dir = self.run_dir.join(format!("cluster-{}-{rep}", self.rep));
            let args = self.args;
            let (cluster, took) = Cluster::spawn(&args.esrd, &args.esrd_args, dir, self.ticks)?;
            self.span("spawn", rep as u64, started);
            self.spawns.push(took.as_secs_f64());
            kept = Some(cluster);
        }
        kept.ok_or_else(|| io::Error::other("no cluster"))
    }

    fn phase<'c>(
        &self,
        cluster: &'c Cluster,
        (id, per_thread, mix): (u64, usize, Mix),
    ) -> Phase<'c> {
        Phase {
            dir: &cluster.dir,
            sites: &CLIENT_SITES,
            plans: (0..CLIENT_SITES.len())
                .map(|t| {
                    load::plan(
                        self.args.seed,
                        id + 16 * self.rep as u64,
                        t,
                        per_thread,
                        &mix,
                    )
                })
                .collect(),
            pace: Pace::Closed,
            epsilon: 0,
            traced: self.traced,
            origin: self.origin,
            cap: Instant::now() + Duration::from_secs(4 * self.args.seconds),
        }
    }
}

/// During a traced pass: times one `Status` round trip every 20 ms
/// (round robin over the sites) and samples the link gauges.
#[derive(Default)]
struct Monitored {
    status_ns: Vec<u64>,
    calls: Vec<Call>,
    depth_max: f64,
    age_max: f64,
}

fn monitor(stop: &AtomicBool, cluster: &Cluster, origin: Instant) -> Monitored {
    let mut out = Monitored::default();
    let ns = |i: Instant| i.saturating_duration_since(origin).as_nanos() as u64;
    let mut tick = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let site = tick % SITES;
        if let Ok(mut c) = cluster.client_within(site, Duration::from_millis(50)) {
            let started = Instant::now();
            if c.status().is_ok() {
                let done = Instant::now();
                out.status_ns
                    .push(done.duration_since(started).as_nanos() as u64);
                out.calls.push(Call {
                    name: "status",
                    thread: u32::MAX - 1,
                    id: site as u64,
                    start_ns: ns(started),
                    end_ns: ns(done),
                });
            }
        }
        if tick.is_multiple_of(10) {
            if let Ok(s) = scrape::scrape(cluster) {
                out.depth_max = out.depth_max.max(scrape::max(&s, "esr_link_queue_depth"));
                out.age_max = out
                    .age_max
                    .max(scrape::max(&s, "esr_link_queue_age_micros"));
            }
        }
        tick += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    out
}

/// Runs one pass of the workload on fresh clusters under `args.out`.
fn run_pass(args: &Args, traced: bool) -> io::Result<Pass> {
    let run_dir = args.out.join(format!(
        "run-{}-{}",
        std::process::id(),
        if traced { "traced" } else { "plain" }
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)?;
    let mut ctx = Ctx {
        args,
        traced,
        origin: Instant::now(),
        calls: Vec::new(),
        run_dir: run_dir.clone(),
        ticks: cluster::clock_ticks(),
        rep: 0,
        spawns: Vec::new(),
    };
    let mut reps = Vec::with_capacity(REPS);
    let mut result = Ok(());
    for rep in 0..REPS {
        ctx.rep = rep;
        match measure(&mut ctx, traced && rep + 1 == REPS) {
            Ok(pass) => {
                // A failed check ends the pass: it is reported, never
                // retried away by the next repetition.
                let failed = !pass.problems.is_empty();
                reps.push(pass);
                if failed {
                    break;
                }
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    result?;
    let mut pass = combine(reps);
    let setup_s = median(&ctx.spawns).unwrap_or(0.0);
    pass.e2e
        .push("setup_s", setup_s, "s", ctx.spawns.len() as u64);
    Ok(pass)
}

/// One pass from its repetitions: the median of each end-to-end metric
/// (sample counts add up), every problem, and the last repetition's
/// per-site accounting, layers and trace.
fn combine(reps: Vec<Pass>) -> Pass {
    let mut out = Pass::default();
    let mut names: Vec<&str> = Vec::new();
    for m in reps.iter().flat_map(|r| &r.e2e.0) {
        if !names.contains(&m.name.as_str()) {
            names.push(&m.name);
        }
    }
    let mut e2e = Metrics::default();
    for name in names {
        let got: Vec<_> = reps.iter().filter_map(|r| r.e2e.get(name)).collect();
        let values: Vec<f64> = got.iter().map(|m| m.value).collect();
        let n = got.iter().map(|m| m.n).sum();
        e2e.push(name, median(&values).unwrap_or(0.0), got[0].unit, n);
    }
    out.e2e = e2e;
    for r in reps {
        out.problems.extend(r.problems);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.sites = r.sites;
        out.layer = r.layer;
        out.trace = r.trace;
    }
    out
}

fn measure(ctx: &mut Ctx<'_>, layered: bool) -> io::Result<Pass> {
    let args = ctx.args;
    let mut phases = args.workload.phases(args.seconds as usize);
    for p in &mut phases {
        p.1 = p.1.div_ceil(REPS);
    }
    let mut pass = Pass::default();
    let cluster = ctx.setup()?;
    let mut preload: BTreeMap<u64, i64> = BTreeMap::new();
    let mut total = Outcome::default();
    let mut extra = Metrics::default();
    let mut cut_ms: Vec<f64> = Vec::new();

    // Restart: the preload and the checkpoint cut precede the measured
    // phases and are reported as `preload_s`. They are not part of
    // `setup_s`: the preload is throughput-bound, so it would carry the
    // host's drift into the set-up time.
    if args.workload == Workload::Restart {
        let started = Instant::now();
        let pre = ctx.phase(&cluster, phases[0]).run();
        pass.attempted += pre.attempted;
        pass.failed += pre.failed;
        preload = pre.totals;
        for site in 0..SITES {
            let t = Instant::now();
            cluster.client(site)?.checkpoint()?;
            cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.span("checkpoint", site as u64, t);
        }
        extra.push("preload_s", started.elapsed().as_secs_f64(), "s", 1);
    }

    let before_cpu = cluster.stats();
    let before_disk = cluster.disk_bytes();
    let before = if layered {
        scrape::scrape(&cluster)?
    } else {
        Vec::new()
    };
    let stop = AtomicBool::new(false);
    let measured_start = Instant::now();
    let monitored = std::thread::scope(|scope| -> io::Result<Monitored> {
        let mon = layered.then(|| {
            let (stop, cluster, origin) = (&stop, &cluster, ctx.origin);
            scope.spawn(move || monitor(stop, cluster, origin))
        });
        let problems = &mut pass.problems;
        let result = drive(
            ctx, &cluster, &phases, &mut total, &mut extra, &preload, problems,
        );
        stop.store(true, Ordering::Relaxed);
        let monitored = mon.and_then(|h| h.join().ok()).unwrap_or_default();
        result.map(|()| monitored)
    })?;
    let mut expected = preload;
    for (k, v) in &total.totals {
        *expected.entry(*k).or_insert(0) += v;
    }

    // Output check, part one: the cluster settles before a deadline.
    // The CPU window runs from the first send until settled, so it
    // holds all the work the ops caused.
    if pass.problems.is_empty() {
        if let Err(e) = cluster.settle(Instant::now() + Duration::from_secs(60)) {
            pass.problems.push(e);
        }
    }
    let after_cpu = cluster.stats();
    let disk_bytes = cluster.disk_bytes().saturating_sub(before_disk);
    let after = if layered {
        scrape::scrape(&cluster)?
    } else {
        Vec::new()
    };
    let cpu_window = measured_start.elapsed();
    pass.sites = before_cpu
        .iter()
        .zip(&after_cpu)
        .map(|(b, a)| ProcStat {
            user_us: a.user_us.saturating_sub(b.user_us),
            sys_us: a.sys_us.saturating_sub(b.sys_us),
            ..*a
        })
        .collect();

    // Part two: one view, one coordinator, and every replica equal to
    // the totals of the acknowledged updates of the generated plan.
    let mut mismatched = 0;
    if pass.problems.is_empty() {
        match cluster.check(&expected) {
            Ok(n) => mismatched = n,
            Err(e) => pass.problems.push(e),
        }
    }
    if mismatched > 0 {
        pass.problems.push(format!(
            "{mismatched} objects differ from the plan's totals at some site"
        ));
    }
    // Part three: updates are positive increments, so no admitted read
    // may have seen more than the final total.
    let over = total
        .read_max
        .iter()
        .filter(|(k, v)| **v > expected.get(k).copied().unwrap_or(0))
        .count();
    if over > 0 {
        pass.problems
            .push(format!("{over} objects were read above their final total"));
    }
    pass.attempted += total.attempted;
    pass.failed += total.failed + mismatched;

    end_to_end(&mut pass, &total, cpu_window, disk_bytes);
    pass.e2e.0.extend(extra.0);

    if layered {
        // A cut of the final state, outside the CPU window (restart
        // already timed its cuts in set-up).
        if args.workload != Workload::Restart {
            for site in 0..SITES {
                let t = Instant::now();
                cluster.client(site)?.checkpoint()?;
                cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
                ctx.span("checkpoint", site as u64, t);
            }
        }
        let cut = scrape::scrape(&cluster)?;
        let recent = &total.ets[total.ets.len().saturating_sub(SPAN_RECENT)..];
        let step = (recent.len() / SPAN_SAMPLE).max(1);
        let sample: Vec<u64> = recent.iter().step_by(step).copied().collect();
        let stages = scrape::stages(&cluster, &sample)?;
        let ledger = run_ledger(ctx, &phases)?;
        let scrapes = Scrapes {
            before: &before,
            after: &after,
            cut: &cut,
        };
        layers(
            &mut pass, &total, &scrapes, &monitored, &cut_ms, &stages, &ledger,
        );
        pass.trace = trace_file(ctx, &total, &monitored, &scrapes, &stages);
    }
    Ok(pass)
}

/// The measured phases of each workload.
fn drive(
    ctx: &mut Ctx<'_>,
    cluster: &Cluster,
    phases: &[(u64, usize, Mix)],
    total: &mut Outcome,
    extra: &mut Metrics,
    preload: &BTreeMap<u64, i64>,
    problems: &mut Vec<String>,
) -> io::Result<()> {
    match ctx.args.workload {
        Workload::UpdateClosed | Workload::ReadClosed => {
            total.merge(ctx.phase(cluster, phases[0]).run());
        }
        Workload::MixedOpen => {
            let mut phase = ctx.phase(cluster, phases[0]);
            phase.pace = Pace::Open {
                rate_per_sec: OPEN_RATE,
            };
            phase.epsilon = u64::MAX;
            total.merge(phase.run());
        }
        Workload::Restart => {
            // Suffix past the cut, SIGKILL site 2, keep submitting at
            // sites 0 and 1, then bring site 2 back and wait until it
            // holds every total.
            let suffix = ctx.phase(cluster, phases[1]).run();
            let t = Instant::now();
            cluster.kill(2)?;
            ctx.span("kill", 2, t);
            let down = ctx.phase(cluster, phases[2]).run();
            let submitting = suffix.elapsed + down.elapsed;
            total.merge(suffix);
            total.merge(down);
            total.elapsed = submitting;
            let mut expected = preload.clone();
            for (k, v) in &total.totals {
                *expected.entry(*k).or_insert(0) += v;
            }
            let respawned = Instant::now();
            let recover = cluster.respawn(2)?;
            ctx.span("respawn", 2, respawned);
            let deadline = respawned + Duration::from_secs(60);
            loop {
                if let Err(e) = cluster.settle(deadline) {
                    problems.push(format!("restarted site never caught up: {e}"));
                    return Ok(());
                }
                if cluster.holds(&expected) {
                    break;
                }
                if Instant::now() >= deadline {
                    problems.push("restarted site never reached the expected totals".into());
                    return Ok(());
                }
            }
            ctx.span("catchup", 2, respawned);
            extra.push("recover_s", recover.as_secs_f64(), "s", 1);
            extra.push("catchup_s", respawned.elapsed().as_secs_f64(), "s", 1);
        }
    }
    Ok(())
}

fn end_to_end(pass: &mut Pass, total: &Outcome, cpu_window: Duration, disk_bytes: u64) {
    let e2e = &mut pass.e2e;
    let ops = total.completed();
    let secs = total.elapsed.as_secs_f64().max(1e-9);
    e2e.push("throughput_ops_s", ops as f64 / secs, "ops/s", ops);
    e2e.push_quantiles_us(&total.update_ns, |q| format!("update_{q}_us"));
    if !total.read_ns.is_empty() {
        e2e.push_quantiles_us(&total.read_ns, |q| format!("read_{q}_us"));
    }
    if !total.late_ns.is_empty() {
        e2e.push_quantiles_us(&total.late_ns, |q| format!("gen_late_{q}_us"));
    }
    if total.strict_queries > 0 {
        e2e.push(
            "query_reject_pct",
            100.0 * total.strict_rejected as f64 / total.strict_queries as f64,
            "%",
            total.strict_queries,
        );
    }
    let cpu: u64 = pass.sites.iter().map(ProcStat::cpu_us).sum();
    e2e.push("cpu_us_per_op", cpu as f64 / ops.max(1) as f64, "us", ops);
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    e2e.push("disk_bytes_per_op", per_op(disk_bytes), "bytes", ops);
    let hwm = pass.sites.iter().map(|p| p.hwm_kb).max().unwrap_or(0);
    e2e.push("rss_peak_mb", hwm as f64 / 1024.0, "MB", SITES as u64);
    e2e.push(
        "error_pct",
        100.0 * pass.failed as f64 / pass.attempted.max(1) as f64,
        "%",
        pass.attempted,
    );
    e2e.push("cpu_window_s", cpu_window.as_secs_f64(), "s", 1);
}

/// Replays the first `LEDGER_OPS` ops of the pass's plan (threads
/// interleaved) through the in-process ledger.
fn run_ledger(ctx: &Ctx<'_>, phases: &[(u64, usize, Mix)]) -> io::Result<Ledger> {
    let mut ops = Vec::new();
    for &(id, per_thread, mix) in phases {
        let n = per_thread.min(LEDGER_OPS);
        let plans: Vec<_> = (0..CLIENT_SITES.len())
            .map(|t| load::plan(ctx.args.seed, id, t, n, &mix))
            .collect();
        for i in 0..n {
            for (t, plan) in plans.iter().enumerate() {
                ops.push((CLIENT_SITES[t], plan[i]));
            }
        }
    }
    ops.truncate(LEDGER_OPS);
    ledger::run(&ops, &ctx.run_dir.join("ledger"))
}

struct Scrapes<'a> {
    /// Before the measured phase.
    before: &'a [Scrape],
    /// Once settled.
    after: &'a [Scrape],
    /// After the checkpoint cuts.
    cut: &'a [Scrape],
}

/// Per-layer metrics of a traced pass.
fn layers(
    pass: &mut Pass,
    total: &Outcome,
    s: &Scrapes<'_>,
    mon: &Monitored,
    cut_ms: &[f64],
    stages: &Stages,
    ledger: &Ledger,
) {
    let ops = total.completed().max(1) as f64;
    let updates = total.update_ns.len().max(1) as f64;
    let d = |name: &str| scrape::delta(s.before, s.after, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hist =
        |name: &str, q: f64| scrape::hist_quantile(s.before, s.after, name, q).unwrap_or(0) as f64;
    let m = &mut pass.layer;

    // gen: how late the open-loop generator sent (closed loops send
    // when the previous reply arrives, so they have no schedule).
    let mut late = total.late_ns.clone();
    late.sort_unstable();
    let late_p99 = stats::percentile(&late, 0.99).unwrap_or(0) as f64 / 1e3;
    m.push("gen.late_p99_us", late_p99, "us", late.len() as u64);

    // client: the benchmark's own timing of each RpcClient call.
    m.push_quantiles_us(&total.submit_call_ns, |q| format!("client.submit_us.{q}"));
    m.push_quantiles_us(&total.query_call_ns, |q| format!("client.query_us.{q}"));
    let mut status = mon.status_ns.clone();
    status.sort_unstable();
    let status_p50 = stats::percentile(&status, 0.5).unwrap_or(0) as f64 / 1e3;
    m.push(
        "client.status_rtt_us.p50",
        status_p50,
        "us",
        status.len() as u64,
    );

    // wire: in-process encode/decode per frame kind.
    for kind in ["submit", "mset", "applied", "complete", "query"] {
        for dir in ["encode", "decode"] {
            let row = ledger.row(&format!("wire.{dir}.{kind}"));
            m.push(
                format!("wire.{dir}_ns.{kind}"),
                row.mean_ns(),
                "ns",
                row.calls,
            );
        }
    }
    let per_update = ratio(ledger.frame_bytes as f64, ledger.updates as f64);
    m.push("wire.bytes_per_update", per_update, "bytes", ledger.updates);

    // rpc: reactor counters of all three daemons.
    let wakeups = d("esr_reactor_wakeups_total");
    m.push("rpc.wakeups_per_op", wakeups / ops, "count", ops as u64);
    let batches = d("esr_ack_batch_size_count");
    let mean = ratio(d("esr_ack_batch_size_sum"), batches);
    m.push("rpc.ack_batch_mean", mean, "count", batches as u64);
    let polls = d("esr_reactor_poll_micros_count") as u64;
    m.push(
        "rpc.poll_us.p50",
        hist("esr_reactor_poll_micros", 0.5),
        "us",
        polls,
    );

    // link: durable peer links.
    let sends = d("esr_link_sends_total");
    m.push(
        "link.sends_per_update",
        sends / updates,
        "count",
        sends as u64,
    );
    m.push(
        "link.retransmits",
        d("esr_link_retransmits_total"),
        "count",
        1,
    );
    let samples = (mon.status_ns.len() as u64).div_ceil(10);
    m.push("link.queue_depth_max", mon.depth_max, "count", samples);
    m.push("link.queue_age_us_max", mon.age_max, "us", samples);

    // ctrl: NodeCore::step per event kind, in process.
    for (name, row) in [
        ("ctrl.submit_step_ns", "ctrl.step.submit"),
        ("ctrl.peer_mset_step_ns", "ctrl.step.mset"),
        ("ctrl.applied_step_ns", "ctrl.step.applied"),
        ("ctrl.complete_step_ns", "ctrl.step.complete"),
    ] {
        let r = ledger.row(row);
        m.push(name, r.mean_ns(), "ns", r.calls);
    }
    let effects = ratio(ledger.effects as f64, ledger.updates as f64);
    m.push("ctrl.effects_per_update", effects, "count", ledger.updates);

    // state: SiteState in process, and the daemons' apply counters.
    m.push(
        "state.deliver_ns",
        ledger.deliver.mean_ns(),
        "ns",
        ledger.deliver.calls,
    );
    let q = ledger.row("state.query");
    m.push("state.query_ns", q.mean_ns(), "ns", q.calls);
    let applies = d("esr_apply_latency_micros_count") as u64;
    m.push(
        "state.apply_us.p50",
        hist("esr_apply_latency_micros", 0.5),
        "us",
        applies,
    );
    m.push(
        "state.apply_us.p99",
        hist("esr_apply_latency_micros", 0.99),
        "us",
        applies,
    );
    let batches = d("esr_batches_total");
    let mean = ratio(d("esr_batch_msets_total"), batches);
    m.push("state.batch_msets_mean", mean, "count", batches as u64);
    let hw = scrape::max(s.after, "esr_commu_lock_counter_high_water");
    m.push("state.lock_counter_high_water", hw, "count", SITES as u64);
    let queries = d("esr_queries_admitted_total") + d("esr_queries_rejected_total");
    let charged = ratio(d("esr_epsilon_charged_total"), queries);
    m.push(
        "state.epsilon_charged_per_query",
        charged,
        "count",
        queries as u64,
    );

    // journal: ApplyJournal::record in process; the daemons' gauges.
    let r = ledger.row("journal.record");
    m.push("journal.record_ns", r.mean_ns(), "ns", r.calls);
    let bytes = d("esr_journal_bytes");
    m.push(
        "journal.bytes_per_update",
        bytes / updates,
        "bytes",
        updates as u64,
    );
    let live: f64 = s
        .after
        .iter()
        .map(|x| scrape::sum(x, "esr_journal_live_entries"))
        .sum();
    m.push("journal.live_entries", live, "count", SITES as u64);

    // ckpt: cut latency as the benchmark saw it, image size, suffix
    // replay at boot (restart only), restore in process.
    let cuts = cut_ms.len() as u64;
    m.push("ckpt.cut_ms", median(cut_ms).unwrap_or(0.0), "ms", cuts);
    let image = scrape::max(s.cut, "esr_checkpoint_bytes");
    m.push("ckpt.snapshot_bytes", image, "bytes", SITES as u64);
    let total_of = |name: &str| -> f64 { s.cut.iter().map(|x| scrape::sum(x, name)).sum() };
    let replay = total_of("esr_suffix_replay_latency_micros_sum");
    let replays = total_of("esr_suffix_replay_latency_micros_count") as u64;
    m.push("ckpt.suffix_replay_ms", replay / 1e3, "ms", replays);
    m.push("ckpt.restore_ns", ledger.restore_ns as f64, "ns", 3);

    // daemon: one value per site.
    for (i, p) in pass.sites.iter().enumerate() {
        let n = ops as u64;
        m.push(
            format!("daemon.s{i}.cpu_user_us_per_op"),
            p.user_us as f64 / ops,
            "us",
            n,
        );
        m.push(
            format!("daemon.s{i}.cpu_sys_us_per_op"),
            p.sys_us as f64 / ops,
            "us",
            n,
        );
        m.push(
            format!("daemon.s{i}.rss_mb"),
            p.hwm_kb as f64 / 1024.0,
            "MB",
            1,
        );
        m.push(format!("daemon.s{i}.threads"), p.threads as f64, "count", 1);
        let elections = s
            .after
            .get(i)
            .map_or(0.0, |x| scrape::sum(x, "esr_elections_total"));
        m.push(format!("daemon.s{i}.elections"), elections, "count", 1);
    }
    let views: BTreeSet<u64> = s
        .after
        .iter()
        .map(|x| scrape::sum(x, "esr_view") as u64)
        .collect();
    m.push(
        "daemon.views_distinct",
        views.len() as f64,
        "count",
        SITES as u64,
    );

    // span: critical-path stages of the sampled ETs.
    for (label, name) in [
        ("client queue", "client_queue"),
        ("local apply", "local_apply"),
        ("transit", "transit"),
        ("hold-back", "hold_back"),
        ("complete certify", "complete_certify"),
        ("complete visibility", "complete_visibility"),
    ] {
        let mut us: Vec<u64> = stages.us.get(label).cloned().unwrap_or_default();
        us.sort_unstable();
        for (tag, q) in [("p50", 0.5), ("p99", 0.99)] {
            let v = stats::percentile(&us, q).unwrap_or(0) as f64;
            m.push(format!("span.{name}_us.{tag}"), v, "us", us.len() as u64);
        }
    }
    m.push(
        "span.ring_drops",
        stages.ring_drops as f64,
        "count",
        SITES as u64,
    );

    // ledger: the daemon-side sum per op.
    m.push(
        "ledger.sum_us_per_op",
        ledger.sum_ns_per_op() / 1e3,
        "us",
        ledger.ops,
    );
}

/// The traced pass's record: benchmark-side spans, daemon metric
/// deltas, and the sampled critical paths, as tab-separated lines.
fn trace_file(
    ctx: &Ctx<'_>,
    total: &Outcome,
    mon: &Monitored,
    s: &Scrapes<'_>,
    stages: &Stages,
) -> String {
    let mut out = format!(
        "# perfbench trace workload={} seed={} seconds={}\n\
         # call name thread id start_ns end_ns\n",
        ctx.args.name, ctx.args.seed, ctx.args.seconds
    );
    let mut calls: Vec<&Call> = ctx
        .calls
        .iter()
        .chain(&total.calls)
        .chain(&mon.calls)
        .collect();
    calls.sort_by_key(|c| c.start_ns);
    for c in calls {
        let _ = writeln!(
            out,
            "call\t{}\t{}\t{}\t{}\t{}",
            c.name, c.thread, c.id, c.start_ns, c.end_ns
        );
    }
    out.push_str("# delta site series before after\n");
    for (site, (b, a)) in s.before.iter().zip(s.after).enumerate() {
        for (key, after) in a {
            let before = b.get(key).copied().unwrap_or(0.0);
            if before != *after {
                let _ = writeln!(out, "delta\t{site}\t{key}\t{before}\t{after}");
            }
        }
    }
    out.push_str("# path et edge us\n");
    for (et, path) in &stages.paths {
        for (label, us) in path {
            let us = us.map_or("?".to_owned(), |v| v.to_string());
            let _ = writeln!(out, "path\t{et}\t{label}\t{us}");
        }
    }
    out
}

fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_default();
    format!("nproc={nproc} kernel={} cpu={cpu}", kernel.trim())
}

fn print_metrics(tag: &str, m: &Metrics) {
    for x in &m.0 {
        println!(
            "{tag} {} = {} {} (n={})",
            x.name,
            json_num(x.value),
            x.unit,
            x.n
        );
    }
}

fn report_pass(tag: &str, pass: &Pass) {
    print_metrics(tag, &pass.e2e);
    for (i, p) in pass.sites.iter().enumerate() {
        println!(
            "{tag} proc site {i}: cpu_user_us={} cpu_sys_us={} vmhwm_kb={} threads={}",
            p.user_us, p.sys_us, p.hwm_kb, p.threads
        );
    }
    for p in &pass.problems {
        println!("{tag} check FAILED: {p}");
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    println!("host {}", host());
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.name, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &Args) -> io::Result<bool> {
    let plain = run_pass(args, false)?;
    report_pass("metric", &plain);
    let mut correct = plain.problems.is_empty();
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    // A failed check ends the run: the traced pass would add nothing.
    let metrics: Vec<(String, f64, &str)> = if !correct {
        Vec::new()
    } else if args.trace {
        let mut traced = run_pass(args, true)?;
        report_pass("traced", &traced);
        correct &= traced.problems.is_empty();
        attempted += traced.attempted;
        failed += traced.failed;
        // The ledger beside the untraced CPU per op, and what tracing
        // cost: traced minus untraced end-to-end numbers.
        let cpu = plain.e2e.get("cpu_us_per_op");
        let (cpu, ops) = cpu.map_or((0.0, 0), |m| (m.value, m.n));
        let sum = traced.layer.value("ledger.sum_us_per_op");
        traced.layer.push("ledger.cpu_us_per_op", cpu, "us", ops);
        traced
            .layer
            .push("ledger.unattributed_us_per_op", cpu - sum, "us", ops);
        for name in [
            "throughput_ops_s",
            "update_p50_us",
            "update_p99_us",
            "cpu_us_per_op",
        ] {
            if let (Some(p), Some(t)) = (plain.e2e.get(name), traced.e2e.get(name)) {
                let delta = t.value - p.value;
                traced
                    .layer
                    .push(format!("trace_overhead.{name}"), delta, p.unit, p.n);
            }
        }
        print_metrics("layer", &traced.layer);
        let path = args
            .out
            .join(format!("{}-seed{}.trace.tsv", args.name, args.seed));
        std::fs::write(&path, &traced.trace)?;
        println!("trace written to {}", path.display());
        traced
            .layer
            .0
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|n| {
                let m = plain.e2e.get(n);
                (
                    n.to_string(),
                    m.map_or(0.0, |m| m.value),
                    m.map_or("", |m| m.unit),
                )
            })
            .collect()
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
