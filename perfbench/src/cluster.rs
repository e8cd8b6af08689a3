//! A 3-site COMMU `esrd` cluster in child processes, plus the `/proc`
//! accounting and the settle/convergence checks the benchmark runs on
//! it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esr_core::ids::{ObjectId, SiteId};
use esr_core::value::Value;
use esr_runtime::client::DaemonStatus;
use esr_runtime::daemon::resolve_addr;
use esr_runtime::RpcClient;

pub const SITES: usize = 3;

/// CPU and memory accounting of one daemon process, from `/proc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_us: u64,
    pub sys_us: u64,
    pub hwm_kb: u64,
    pub threads: u64,
}

impl ProcStat {
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

/// Clock ticks per second for `/proc/<pid>/stat` CPU fields.
pub fn clock_ticks() -> u64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100)
}

/// Reads utime/stime, VmHWM, and the thread count of `pid`.
pub fn proc_stat(pid: u32, ticks: u64) -> io::Result<ProcStat> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> u64 {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
            * 1_000_000
            / ticks
    };
    let mut out = ProcStat {
        user_us: tick(11),
        sys_us: tick(12),
        ..ProcStat::default()
    };
    let num = |l: &str| {
        l.split_whitespace()
            .nth(1)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    for line in status.lines() {
        if line.starts_with("VmHWM:") {
            out.hwm_kb = num(line);
        } else if line.starts_with("Threads:") {
            out.threads = num(line);
        }
    }
    Ok(out)
}

/// Connects to site `site` once its address file names a listening
/// daemon and it answers `Status`, polling every 100 µs (a boot takes a
/// few milliseconds, so a coarser poll would dominate `setup_s`).
pub fn connect_serving(dir: &Path, site: usize, deadline: Instant) -> io::Result<RpcClient> {
    loop {
        if let Some(addr) = resolve_addr(dir, SiteId(site as u64)) {
            if let Ok(mut c) = RpcClient::connect(addr) {
                if c.status().is_ok() {
                    return Ok(c);
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("site {site} did not come up"),
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// A running cluster. Dropping it SIGKILLs and reaps every daemon.
pub struct Cluster {
    pub dir: PathBuf,
    esrd: PathBuf,
    /// Extra `esrd` flags (e.g. a `--ckpt-bytes` policy).
    esrd_args: Vec<String>,
    children: Mutex<Vec<Option<Child>>>,
    /// CPU spent by incarnations that were killed, per site.
    retired: Mutex<Vec<ProcStat>>,
    ticks: u64,
}

impl Cluster {
    /// Spawns every site into a fresh `dir` and waits until each answers
    /// `Status`. Returns the cluster and the spawn-to-serving time.
    pub fn spawn(
        esrd: &Path,
        esrd_args: &[String],
        dir: PathBuf,
        ticks: u64,
    ) -> io::Result<(Self, Duration)> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let cluster = Self {
            dir,
            esrd: esrd.to_path_buf(),
            esrd_args: esrd_args.to_vec(),
            children: Mutex::new((0..SITES).map(|_| None).collect()),
            retired: Mutex::new(vec![ProcStat::default(); SITES]),
            ticks,
        };
        let started = Instant::now();
        for site in 0..SITES {
            cluster.start_site(site)?;
        }
        let deadline = started + Duration::from_secs(20);
        for site in 0..SITES {
            connect_serving(&cluster.dir, site, deadline)?;
        }
        Ok((cluster, started.elapsed()))
    }

    fn start_site(&self, site: usize) -> io::Result<()> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(self.dir.join(format!("esrd-{site}.log")))?;
        let child = Command::new(&self.esrd)
            .args(["--site", &site.to_string(), "--sites", &SITES.to_string()])
            .args(["--method", "commu", "--dir"])
            .arg(&self.dir)
            .args(&self.esrd_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        lock(&self.children)[site] = Some(child);
        Ok(())
    }

    /// Re-spawns a killed site; returns the time until it answers
    /// `Status`.
    pub fn respawn(&self, site: usize) -> io::Result<Duration> {
        let started = Instant::now();
        self.start_site(site)?;
        connect_serving(&self.dir, site, started + Duration::from_secs(60))?;
        Ok(started.elapsed())
    }

    /// SIGKILLs one site and reaps it, keeping its CPU account.
    pub fn kill(&self, site: usize) -> io::Result<()> {
        let taken = lock(&self.children)[site].take();
        if let Some(mut child) = taken {
            if let Ok(st) = proc_stat(child.id(), self.ticks) {
                let r = &mut lock(&self.retired)[site];
                r.user_us += st.user_us;
                r.sys_us += st.sys_us;
                r.hwm_kb = r.hwm_kb.max(st.hwm_kb);
            }
            child.kill()?;
            child.wait()?;
        }
        Ok(())
    }

    /// Per-site accounting: CPU includes killed incarnations, VmHWM is
    /// the largest of any incarnation, threads are the live process's.
    pub fn stats(&self) -> Vec<ProcStat> {
        let pids: Vec<Option<u32>> = lock(&self.children)
            .iter()
            .map(|c| c.as_ref().map(Child::id))
            .collect();
        let retired = lock(&self.retired).clone();
        (0..SITES)
            .map(|site| {
                let live = pids[site]
                    .and_then(|pid| proc_stat(pid, self.ticks).ok())
                    .unwrap_or_default();
                let r = retired[site];
                ProcStat {
                    user_us: r.user_us + live.user_us,
                    sys_us: r.sys_us + live.sys_us,
                    hwm_kb: r.hwm_kb.max(live.hwm_kb),
                    threads: live.threads,
                }
            })
            .collect()
    }

    /// Total size of the files in the cluster directory: journals,
    /// link queues, snapshots and the small address/epoch/view files.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    pub fn client(&self, site: usize) -> io::Result<RpcClient> {
        self.client_within(site, Duration::from_secs(10))
    }

    pub fn client_within(&self, site: usize, wait: Duration) -> io::Result<RpcClient> {
        connect_serving(&self.dir, site, Instant::now() + wait)
    }

    pub fn statuses(&self) -> io::Result<Vec<DaemonStatus>> {
        (0..SITES).map(|s| self.client(s)?.status()).collect()
    }

    /// Polls until every site is settled with nothing pending on its
    /// outbound links; returns the wait, or an error at `deadline`.
    pub fn settle(&self, deadline: Instant) -> Result<Duration, String> {
        let started = Instant::now();
        let mut clients: Vec<RpcClient> = (0..SITES)
            .map(|s| self.client(s))
            .collect::<io::Result<_>>()
            .map_err(|e| format!("connect for settle: {e}"))?;
        loop {
            let mut last = Vec::new();
            let mut all = true;
            for c in &mut clients {
                let st = c.status().map_err(|e| format!("status: {e}"))?;
                all &= st.settled && st.outbound_pending == 0;
                last.push(st);
            }
            if all {
                return Ok(started.elapsed());
            }
            if Instant::now() >= deadline {
                return Err(format!("cluster did not settle: {last:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The output check, on a settled cluster: one view, exactly one
    /// coordinator, and every site's replica equal to `expected`.
    /// Returns the number of objects that disagree at any site, or a
    /// description of a view/coordinator fault.
    pub fn check(&self, expected: &BTreeMap<u64, i64>) -> Result<u64, String> {
        let statuses = self.statuses().map_err(|e| format!("status: {e}"))?;
        let views: Vec<u64> = statuses.iter().map(|s| s.view).collect();
        if views.iter().any(|v| *v != views[0]) {
            return Err(format!("sites disagree on the view: {views:?}"));
        }
        let coordinators = statuses.iter().filter(|s| s.coordinator).count();
        if coordinators != 1 {
            return Err(format!(
                "{coordinators} sites claim coordinator in view {}",
                views[0]
            ));
        }
        let mut bad = std::collections::BTreeSet::new();
        for site in 0..SITES {
            let snap = self
                .client(site)
                .and_then(|mut c| c.snapshot())
                .map_err(|e| format!("snapshot of site {site}: {e}"))?;
            bad.extend(mismatched(&snap, expected));
        }
        Ok(bad.len() as u64)
    }

    /// Did every site's replica reach `expected`? (Cheap enough to poll
    /// during catch-up once the cluster reports settled.)
    pub fn holds(&self, expected: &BTreeMap<u64, i64>) -> bool {
        (0..SITES).all(|site| {
            self.client(site)
                .and_then(|mut c| c.snapshot())
                .is_ok_and(|snap| mismatched(&snap, expected).is_empty())
        })
    }
}

/// Every update under these locks is a single assignment, so the data
/// stays valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Objects whose replica value differs from the expected total (an
/// object never updated must be absent).
fn mismatched(snap: &BTreeMap<ObjectId, Value>, expected: &BTreeMap<u64, i64>) -> Vec<u64> {
    let mut bad: Vec<u64> = expected
        .iter()
        .filter(|(k, v)| snap.get(&ObjectId(**k)) != Some(&Value::Int(**v)))
        .map(|(k, _)| *k)
        .collect();
    bad.extend(
        snap.keys()
            .map(|k| k.0)
            .filter(|k| !expected.contains_key(k)),
    );
    bad
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in lock(&self.children).iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
