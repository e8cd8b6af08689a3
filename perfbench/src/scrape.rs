//! Reading the daemons from outside: their Prometheus metrics text and
//! their span rings, both over `RpcClient`.

use std::collections::BTreeMap;
use std::io;

use esr_core::ids::{EtId, SiteId};
use esr_obs::registry::quantile_from_cumulative;
use esr_runtime::spans::PathEdge;
use esr_runtime::{critical_path, merge_timeline};

use crate::cluster::{Cluster, SITES};

/// One site's metrics: series key (`name{labels}`) → value.
pub type Scrape = BTreeMap<String, f64>;

pub fn parse(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// Scrapes every site.
pub fn scrape(cluster: &Cluster) -> io::Result<Vec<Scrape>> {
    (0..SITES)
        .map(|s| Ok(parse(&cluster.client(s)?.metrics()?)))
        .collect()
}

fn series_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Sum over every series named `name` in one scrape.
pub fn sum(scrape: &Scrape, name: &str) -> f64 {
    scrape
        .iter()
        .filter(|(k, _)| series_name(k) == name)
        .map(|(_, v)| v)
        .sum()
}

/// Sum over sites of the growth of series `name` between two scrapes.
pub fn delta(before: &[Scrape], after: &[Scrape], name: &str) -> f64 {
    after.iter().map(|s| sum(s, name)).sum::<f64>()
        - before.iter().map(|s| sum(s, name)).sum::<f64>()
}

/// Largest value of any series named `name` across sites.
pub fn max(scrapes: &[Scrape], name: &str) -> f64 {
    scrapes
        .iter()
        .flat_map(|s| s.iter())
        .filter(|(k, _)| series_name(k) == name)
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
}

/// Quantile `q` of the observations histogram `name` gained between
/// two scrapes, all sites pooled. `None` when nothing was observed.
pub fn hist_quantile(before: &[Scrape], after: &[Scrape], name: &str, q: f64) -> Option<u64> {
    let bucket = format!("{name}_bucket");
    let mut cumulative: BTreeMap<u64, f64> = BTreeMap::new();
    for (sign, scrapes) in [(-1.0, before), (1.0, after)] {
        for (key, v) in scrapes.iter().flat_map(|s| s.iter()) {
            if series_name(key) != bucket {
                continue;
            }
            let le = key
                .split("le=\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .map(|le| le.parse::<u64>().unwrap_or(u64::MAX))
                .unwrap_or(u64::MAX);
            *cumulative.entry(le).or_insert(0.0) += sign * v;
        }
    }
    let points: Vec<(u64, u64)> = cumulative
        .into_iter()
        .map(|(le, c)| (le, c.max(0.0) as u64))
        .collect();
    quantile_from_cumulative(&points, q)
}

/// Critical-path stage durations of sampled ETs, merged from every
/// site's span ring.
#[derive(Debug, Default)]
pub struct Stages {
    /// Stage label (per-peer prefix stripped) → durations in µs.
    pub us: BTreeMap<String, Vec<u64>>,
    /// Spans the sites' bounded rings evicted, summed.
    pub ring_drops: u64,
    /// The sampled ETs' critical paths, for the trace file.
    pub paths: Vec<(u64, Vec<PathEdge>)>,
}

/// "s1 transit" and "s2 transit" are the same edge to different peers.
fn stage_key(label: &str) -> String {
    match label.split_once(' ') {
        Some((head, rest))
            if head.len() >= 2
                && head.starts_with('s')
                && head[1..].chars().all(|c| c.is_ascii_digit()) =>
        {
            rest.to_owned()
        }
        _ => label.to_owned(),
    }
}

pub fn stages(cluster: &Cluster, ets: &[u64]) -> io::Result<Stages> {
    let mut clients = (0..SITES)
        .map(|s| cluster.client(s))
        .collect::<io::Result<Vec<_>>>()?;
    let mut out = Stages::default();
    let mut drops = [0u64; SITES];
    for &et in ets {
        let mut per_site = Vec::with_capacity(SITES);
        for (s, c) in clients.iter_mut().enumerate() {
            let (dropped, spans) = c.spans(et)?;
            drops[s] = dropped;
            per_site.push((SiteId(s as u64), spans));
        }
        let path = critical_path(&merge_timeline(&per_site, EtId(et)));
        for (label, us) in &path {
            if let Some(us) = us {
                out.us.entry(stage_key(label)).or_default().push(*us);
            }
        }
        out.paths.push((et, path));
    }
    out.ring_drops = drops.iter().sum();
    Ok(out)
}
