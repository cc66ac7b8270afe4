//! Lake generation, embedding, on-disk deployment and daemon processes.
//!
//! Everything here goes through the repository's public API: the
//! `pexeso-lake` generator, `pexeso::pipeline::embed_synthetic_lake`,
//! `PartitionedLake::build` with the CLI's default partitioning, and the
//! `pexeso serve` / `pexeso router` binaries run at their CLI defaults.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use pexeso::pipeline::{embed_query, embed_synthetic_lake};
use pexeso_core::column::ColumnSet;
use pexeso_core::config::IndexOptions;
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{LakeManifest, PartitionedLake};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::vector::VectorStore;
use pexeso_embed::SemanticEmbedder;
use pexeso_lake::generator::{GeneratorConfig, SyntheticLake};
use pexeso_serve::ServeClient;

pub type Res<T> = Result<T, String>;

/// Partitions per deployment: the `pexeso index` default.
pub const PARTITIONS: usize = 4;
/// Name recorded in the manifest for the embedder that built the lake.
const EMBEDDER_NAME: &str = "semantic";

/// A lake shape from the repository's generator, with the embedding
/// width the paper-profile workloads use (`pexeso-bench`'s `Workload`).
#[derive(Debug, Clone)]
pub struct Profile {
    pub config: GeneratorConfig,
    pub dim: usize,
}

impl Profile {
    /// OPEN-like: about 150 tables of 100–500 rows, 96-d.
    pub fn open(seed: u64) -> Self {
        Self {
            config: GeneratorConfig::open_like(1.0, seed),
            dim: 96,
        }
    }

    /// WDC-like: about 600 tables of 8–30 rows, 48-d.
    pub fn wdc(seed: u64) -> Self {
        Self {
            config: GeneratorConfig::wdc_like(0.5, seed),
            dim: 48,
        }
    }
}

/// The embedded lake: the columns the deployment indexes (normalized like
/// the offline build normalizes) plus the embedder that produced them.
pub struct Embedded {
    pub embedder: SemanticEmbedder,
    pub columns: ColumnSet,
    /// String values fed to the embedder.
    pub values: usize,
}

pub fn embed_lake(lake: &SyntheticLake, dim: usize) -> Res<Embedded> {
    let embedder = SemanticEmbedder::new(dim, lake.lexicon.clone());
    let mut embedded = embed_synthetic_lake(&embedder, lake).map_err(|e| e.to_string())?;
    embedded.columns.store_mut().normalize_all();
    Ok(Embedded {
        embedder,
        columns: embedded.columns,
        values: lake.total_key_cells(),
    })
}

/// One generated column: its source name, its values and their
/// embedding as sent on the wire.
#[derive(Debug, Clone)]
pub struct EmbeddedColumn {
    pub name: String,
    pub values: Vec<String>,
    pub store: VectorStore,
}

/// Generate `n` columns and embed them on `threads` threads. Column `i`
/// is shaped like lake table `i` (cycling through the tables): as many
/// values, drawn from the same domain, so the pool mixes lengths and
/// domains as the lake does. (Equal-length columns rotating evenly
/// through the domains gave the OPEN-like workload two latency modes with
/// the median between them, where it moved by a fifth between runs.)
/// `salt` separates independent pools drawn from one lake.
pub fn make_columns(
    lake: &SyntheticLake,
    embedder: &SemanticEmbedder,
    n: usize,
    salt: u64,
    prefix: &str,
    threads: usize,
) -> Vec<EmbeddedColumn> {
    let make = |i: usize| {
        let seed = salt
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64 + 1);
        let like = &lake.tables[i % lake.tables.len()];
        let gen = lake.make_query(like.domain, like.entities.len(), seed);
        EmbeddedColumn {
            name: format!("{prefix}_{i:05}"),
            values: gen.key_values().to_vec(),
            store: embed_query(embedder, gen.key_values()).store().clone(),
        }
    };
    let threads = threads.clamp(1, n.max(1));
    let mut parts: Vec<Vec<EmbeddedColumn>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let make = &make;
                s.spawn(move || (t..n).step_by(threads).map(make).collect::<Vec<_>>())
            })
            .collect();
        parts = handles
            .into_iter()
            .map(|h| h.join().expect("query generation panicked"))
            .collect();
    });
    // Re-interleave the strided parts back into pool order.
    let mut iters: Vec<_> = parts.into_iter().map(|p| p.into_iter()).collect();
    (0..n)
        .map(|i| iters[i % threads].next().expect("strided part"))
        .collect()
}

/// Partition, index and persist `columns` under `dir` the way
/// `pexeso index` does (JSD k-means into [`PARTITIONS`], default index
/// options), and write the manifest. Returns the build time.
pub fn build_deployment(columns: &ColumnSet, dim: usize, dir: &Path) -> Res<Duration> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    PartitionedLake::build(
        columns,
        Euclidean,
        &PartitionConfig {
            k: PARTITIONS,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &IndexOptions::default(),
        dir,
    )
    .map_err(|e| format!("partition build: {e}"))?;
    let built = t.elapsed();
    let mut manifest =
        LakeManifest::next_build(dir, EMBEDDER_NAME, dim).map_err(|e| e.to_string())?;
    manifest.next_external_id = columns.n_columns() as u64;
    manifest.write(dir).map_err(|e| e.to_string())?;
    Ok(built)
}

/// Total bytes of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A `pexeso serve` or `pexeso router` child process. Dropping it kills
/// and reaps the process; [`Daemon::shutdown`] asks it to stop first.
pub struct Daemon {
    child: Child,
    pub addr: String,
    // Kept open so the daemon's last lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start `bin <args> --port 0` and wait for its "listening on" line.
    pub fn spawn(bin: &Path, args: &[&str]) -> Res<Self> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} {:?} exited before listening",
                        bin.display(),
                        args
                    ));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        Ok(Self {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// A client with a single pooled connection.
    pub fn client(&self) -> Res<ServeClient> {
        ServeClient::connect_with_capacity(self.addr.as_str(), 1)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Block until the daemon answers INFO (its first good reply).
    pub fn wait_ready(&self) -> Res<()> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self
                .client()
                .and_then(|c| c.info().map_err(|e| e.to_string()))
            {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) in KiB, from `/proc`.
    pub fn vm_hwm_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    }

    /// Ask the daemon to shut down and reap it; kill it if it lingers.
    pub fn shutdown(mut self) {
        if let Ok(c) = self.client() {
            let _ = c.set_timeout(Some(Duration::from_secs(5)));
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A 2-shard routed deployment: `split_lake` shard directories, one
/// `pexeso serve` per shard and a `pexeso router` over them.
pub struct Routed {
    pub dirs: Vec<PathBuf>,
    pub shards: Vec<Daemon>,
    pub router: Daemon,
}

pub const SHARDS: usize = 2;

/// Split the deployment at `src` into [`SHARDS`] range shards under
/// `out` and start the shard daemons and the router. The caller times it.
pub fn start_routed(bin: &Path, src: &Path, out: &Path) -> Res<Routed> {
    let _ = std::fs::remove_dir_all(out);
    let map = pexeso_router::split_lake(src, SHARDS, out).map_err(|e| format!("split: {e}"))?;
    let dirs: Vec<PathBuf> = (0..map.len())
        .map(|i| out.join(pexeso_router::shard_dir_name(i)))
        .collect();
    let shards = dirs
        .iter()
        .map(|d| Daemon::spawn(bin, &["serve", "--index", &d.to_string_lossy()]))
        .collect::<Res<Vec<_>>>()?;
    let mut text = String::from("# shard map\n");
    for (spec, d) in map.shards().iter().zip(&shards) {
        let hi = if spec.hi == u64::MAX {
            "*".to_string()
        } else {
            spec.hi.to_string()
        };
        text.push_str(&format!("shard {} {} {}\n", spec.lo, hi, d.addr));
    }
    let map_path = out.join("routed_map.txt");
    std::fs::write(&map_path, text).map_err(|e| e.to_string())?;
    let router = Daemon::spawn(bin, &["router", "--map", &map_path.to_string_lossy()])?;
    for d in &shards {
        d.wait_ready()?;
    }
    router.wait_ready()?;
    Ok(Routed {
        dirs,
        shards,
        router,
    })
}

impl Routed {
    pub fn shutdown(self) {
        self.router.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}
