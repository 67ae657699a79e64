//! Persistence of learned proxy state.
//!
//! The paper's future work: "Further tests, with a repetition of the
//! request pattern and a system with pre-learned information shall be
//! shown in the future." Snapshots make that experiment possible: run a
//! workload, save every proxy's mapping tables, and restart the cluster
//! warm.
//!
//! The format is a plain line-oriented text format (one entry per line),
//! readable with any tool and stable across versions:
//!
//! ```text
//! adc-snapshot v1
//! proxy 3 of 5
//! config <single> <multiple> <cache> <max_hops> <aging> <policy>
//! clock <local_time>
//! single <object> <location> <last> <avg> <hits>
//! ...
//! multiple <object> <location> <last> <avg> <hits>
//! ...
//! cached <object> <location> <last> <avg> <hits>
//! ```

// Line-parser idiom: every `parts[i]` access is immediately preceded by a
// `parts.len()` check on the same match arm, so per-site bounds comments
// would restate the adjacent guard. adc-lint: allow-file(index-comment)

use crate::config::{AdcConfig, AgingMode, CachePolicy};
use crate::entry::{TableEntry, Tick};
use crate::ids::{Location, ObjectId, ProxyId};
use crate::proxy::AdcProxy;
use crate::tables::MappingTables;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// A serializable snapshot of one proxy's learned state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxySnapshot {
    /// The proxy this snapshot came from.
    pub proxy: ProxyId,
    /// The peer-set size it ran in.
    pub num_proxies: u32,
    /// The configuration the tables were built with.
    pub config: AdcConfig,
    /// The proxy's local clock at snapshot time.
    pub local_time: Tick,
    /// Single-table rows, newest first.
    pub single: Vec<TableEntry>,
    /// Multiple-table rows, best first.
    pub multiple: Vec<TableEntry>,
    /// Caching-table rows, best first.
    pub cached: Vec<TableEntry>,
}

/// Error restoring or parsing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed snapshot content.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Parse(m) => write!(f, "malformed snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Parse(_) => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl ProxySnapshot {
    /// Captures the learned state of `proxy`.
    pub fn capture(proxy: &AdcProxy) -> ProxySnapshot {
        let tables = proxy.tables();
        ProxySnapshot {
            proxy: proxy.proxy_id_value(),
            num_proxies: proxy.num_proxies(),
            config: proxy.config().clone(),
            local_time: proxy.local_time(),
            single: tables.single().iter().copied().collect(),
            multiple: tables.multiple().iter().copied().collect(),
            cached: tables.cached().iter().copied().collect(),
        }
    }

    /// Rebuilds a warm proxy from this snapshot.
    ///
    /// The restored proxy has the same tables, clock and configuration;
    /// counters start from zero (they measure work, not state).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] when the snapshot's tables exceed
    /// the configured capacities or list an object more than once.
    pub fn restore(&self) -> Result<AdcProxy, SnapshotError> {
        if self.config.policy != CachePolicy::Selective {
            return Err(SnapshotError::Parse(
                "only selective-policy proxies are restorable".into(),
            ));
        }
        if self.single.len() > self.config.single_capacity
            || self.multiple.len() > self.config.multiple_capacity
            || self.cached.len() > self.config.cache_capacity
        {
            return Err(SnapshotError::Parse(
                "table contents exceed configured capacities".into(),
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in self.single.iter().chain(&self.multiple).chain(&self.cached) {
            if !seen.insert(e.object) {
                return Err(SnapshotError::Parse(format!(
                    "object {} listed more than once",
                    e.object
                )));
            }
        }
        let mut tables = MappingTables::new(
            self.config.single_capacity,
            self.config.multiple_capacity,
            self.config.cache_capacity,
            self.config.aging,
        );
        tables.restore_contents(&self.single, &self.multiple, &self.cached);
        Ok(AdcProxy::from_restored(
            self.proxy,
            self.num_proxies,
            self.config.clone(),
            tables,
            self.local_time,
        ))
    }

    /// Writes the snapshot in the documented text format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        let mut w = BufWriter::new(w);
        writeln!(w, "adc-snapshot v1")?;
        writeln!(w, "proxy {} of {}", self.proxy.raw(), self.num_proxies)?;
        writeln!(
            w,
            "config {} {} {} {} {} {}",
            self.config.single_capacity,
            self.config.multiple_capacity,
            self.config.cache_capacity,
            self.config.max_hops,
            match self.config.aging {
                AgingMode::AgedWorst => "aged",
                AgingMode::Off => "off",
            },
            match self.config.policy {
                CachePolicy::Selective => "selective",
                CachePolicy::LruAll => "lru",
            }
        )?;
        writeln!(w, "clock {}", self.local_time)?;
        for (tag, entries) in [
            ("single", &self.single),
            ("multiple", &self.multiple),
            ("cached", &self.cached),
        ] {
            for e in entries.iter() {
                let loc = match e.location {
                    Location::This => "this".to_string(),
                    Location::Remote(p) => p.raw().to_string(),
                };
                writeln!(
                    w,
                    "{tag} {} {loc} {} {} {}",
                    e.object.raw(),
                    e.last,
                    e.average,
                    e.hits
                )?;
            }
        }
        w.flush()
    }

    /// Reads a snapshot written by [`ProxySnapshot::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure or malformed content.
    pub fn read_from<R: Read>(r: R) -> Result<ProxySnapshot, SnapshotError> {
        let mut lines = BufReader::new(r).lines();
        let mut next_line = || -> Result<String, SnapshotError> {
            lines
                .next()
                .ok_or_else(|| SnapshotError::Parse("unexpected end of snapshot".into()))?
                .map_err(SnapshotError::from)
        };
        let header = next_line()?;
        if header.trim() != "adc-snapshot v1" {
            return Err(SnapshotError::Parse(format!("bad header: {header:?}")));
        }
        let proxy_line = next_line()?;
        let parts: Vec<&str> = proxy_line.split_whitespace().collect();
        if parts.len() != 4 || parts[0] != "proxy" || parts[2] != "of" {
            return Err(SnapshotError::Parse(format!(
                "bad proxy line: {proxy_line:?}"
            )));
        }
        let proxy = ProxyId::new(parse(parts[1])?);
        let num_proxies: u32 = parse(parts[3])?;

        let config_line = next_line()?;
        let parts: Vec<&str> = config_line.split_whitespace().collect();
        if parts.len() != 7 || parts[0] != "config" {
            return Err(SnapshotError::Parse(format!(
                "bad config line: {config_line:?}"
            )));
        }
        let config = AdcConfig {
            single_capacity: parse(parts[1])?,
            multiple_capacity: parse(parts[2])?,
            cache_capacity: parse(parts[3])?,
            max_hops: parse(parts[4])?,
            aging: match parts[5] {
                "aged" => AgingMode::AgedWorst,
                "off" => AgingMode::Off,
                other => return Err(SnapshotError::Parse(format!("bad aging: {other:?}"))),
            },
            policy: match parts[6] {
                "selective" => CachePolicy::Selective,
                "lru" => CachePolicy::LruAll,
                other => return Err(SnapshotError::Parse(format!("bad policy: {other:?}"))),
            },
        };

        let clock_line = next_line()?;
        let parts: Vec<&str> = clock_line.split_whitespace().collect();
        if parts.len() != 2 || parts[0] != "clock" {
            return Err(SnapshotError::Parse(format!(
                "bad clock line: {clock_line:?}"
            )));
        }
        let local_time: Tick = parse(parts[1])?;

        let mut snapshot = ProxySnapshot {
            proxy,
            num_proxies,
            config,
            local_time,
            single: Vec::new(),
            multiple: Vec::new(),
            cached: Vec::new(),
        };
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 6 {
                return Err(SnapshotError::Parse(format!("bad entry line: {line:?}")));
            }
            let entry = TableEntry {
                object: ObjectId::new(parse(parts[1])?),
                location: if parts[2] == "this" {
                    Location::This
                } else {
                    Location::Remote(ProxyId::new(parse(parts[2])?))
                },
                last: parse(parts[3])?,
                average: parse(parts[4])?,
                hits: parse(parts[5])?,
            };
            match parts[0] {
                "single" => snapshot.single.push(entry),
                "multiple" => snapshot.multiple.push(entry),
                "cached" => snapshot.cached.push(entry),
                other => {
                    return Err(SnapshotError::Parse(format!(
                        "unknown table tag: {other:?}"
                    )))
                }
            }
        }
        Ok(snapshot)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, SnapshotError> {
    s.parse()
        .map_err(|_| SnapshotError::Parse(format!("bad number {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Action;
    use crate::agent::CacheAgent;
    use crate::ids::ClientId;
    use crate::ids::NodeId;
    use crate::ids::RequestId;
    use crate::message::{Message, Reply, Request};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_proxy() -> AdcProxy {
        let config = AdcConfig::builder()
            .single_capacity(32)
            .multiple_capacity(32)
            .cache_capacity(16)
            .max_hops(8)
            .build();
        let mut proxy = AdcProxy::new(ProxyId::new(0), 1, config);
        let mut rng = StdRng::seed_from_u64(1);
        let client = ClientId::new(0);
        for seq in 0..200u64 {
            let object = ObjectId::new(seq % 9);
            let request = Request::new(RequestId::new(client, seq), object, client);
            let mut inbox = vec![Message::Request(request)];
            while let Some(message) = inbox.pop() {
                let action = match message {
                    Message::Request(r) => Some(proxy.request_action(r, &mut rng)),
                    Message::Reply(r) => proxy.reply_action(r),
                };
                if let Some(Action::Send { to, message }) = action {
                    match to {
                        NodeId::Proxy(_) => inbox.push(message),
                        NodeId::Origin => {
                            if let Message::Request(f) = message {
                                inbox.push(Message::Reply(Reply::from_origin(&f, 64)));
                            }
                        }
                        NodeId::Client(_) => {}
                    }
                }
            }
        }
        proxy
    }

    #[test]
    fn capture_restore_round_trip_in_memory() {
        let proxy = trained_proxy();
        let snapshot = ProxySnapshot::capture(&proxy);
        let restored = snapshot.restore().unwrap();
        assert_eq!(restored.local_time(), proxy.local_time());
        // All table contents match.
        for o in 0..9u64 {
            let a = proxy.tables().lookup(ObjectId::new(o));
            let b = restored.tables().lookup(ObjectId::new(o));
            assert_eq!(a, b, "entry for object {o} differs");
            assert_eq!(
                proxy.is_cached(ObjectId::new(o)),
                restored.is_cached(ObjectId::new(o))
            );
        }
        restored.tables().assert_invariants();
    }

    #[test]
    fn text_format_round_trip() {
        let proxy = trained_proxy();
        let snapshot = ProxySnapshot::capture(&proxy);
        let mut buf = Vec::new();
        snapshot.write_to(&mut buf).unwrap();
        let back = ProxySnapshot::read_from(buf.as_slice()).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn restored_proxy_keeps_hitting() {
        let proxy = trained_proxy();
        let hot = ObjectId::new(0);
        assert!(proxy.is_cached(hot), "training should cache object 0");
        let snapshot = ProxySnapshot::capture(&proxy);
        let mut restored = snapshot.restore().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let client = ClientId::new(0);
        let request = Request::new(RequestId::new(client, 999), hot, client);
        let Action::Send { to, .. } = restored.request_action(request, &mut rng);
        assert_eq!(to, NodeId::Client(client), "warm proxy should hit");
        assert_eq!(restored.stats().local_hits, 1);
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(ProxySnapshot::read_from("garbage".as_bytes()).is_err());
        let text = "adc-snapshot v1\nproxy 0 of 1\nconfig 8 8 4 8 aged selective\nclock x\n";
        assert!(ProxySnapshot::read_from(text.as_bytes()).is_err());
        let text = "adc-snapshot v1\nproxy 0 of 1\nconfig 8 8 4 8 weird selective\nclock 0\n";
        assert!(ProxySnapshot::read_from(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_oversized_contents() {
        let proxy = trained_proxy();
        let mut snapshot = ProxySnapshot::capture(&proxy);
        snapshot.config.cache_capacity = 1; // smaller than captured cache
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Parse(_))));
    }

    #[test]
    fn rejects_duplicate_objects() {
        let proxy = trained_proxy();
        let mut snapshot = ProxySnapshot::capture(&proxy);
        let twin = snapshot.cached[0];
        snapshot.single.push(twin);
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Parse(_))));
    }

    #[test]
    fn empty_proxy_round_trips() {
        let proxy = AdcProxy::new(ProxyId::new(2), 5, AdcConfig::default());
        let snapshot = ProxySnapshot::capture(&proxy);
        let mut buf = Vec::new();
        snapshot.write_to(&mut buf).unwrap();
        let back = ProxySnapshot::read_from(buf.as_slice()).unwrap();
        let restored = back.restore().unwrap();
        assert_eq!(restored.proxy_id_value(), ProxyId::new(2));
        assert!(restored.tables().is_empty());
    }
}
