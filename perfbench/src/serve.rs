//! `serve-hot` and `serve-cold`: closed-loop request mixes on a loopback
//! epoll reactor inside the benchmark process.
//!
//! Both open an `EvalService` on a cache directory holding a populated
//! result log, start `ulm_reactor::Reactor` with `ulm_serve::ReactorService`
//! (what `ulm_serve::run_reactor` runs, plus a shutdown handle), and drive
//! it from `min(2, nproc)` client connections, each sending its next
//! request only after the previous answer arrived.
//!
//! * hot — a small working set (eval, search, whatif, surrogate, net and a
//!   rare stats request) repeated; every eval/search answer is cached.
//! * cold — every request distinct, drawn without replacement from a grid
//!   of arch preset × GB bandwidth × B/K/C; every miss is computed and
//!   appended to the durable log.
//!
//! All surrogate requests go through the first connection so the single
//! specialization slot sees the same key sequence on every run, and every
//! counter repeats exactly for a given seed.

use crate::metrics::{self, mean, median, percentile, ratio, Layers, Report};
use crate::rng::Rng;
use crate::trace::{trace_path, Tracer};
use crate::{validate, Args};
use serde::{Serialize, Value};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use ulm_arch::presets::{self, PresetChip};
use ulm_energy::EnergyModel;
use ulm_mapper::{Mapper, MapperOptions, Objective};
use ulm_mapping::{MappedLayer, Mapping, SpatialUnroll};
use ulm_model::{
    apply_overrides, InputDelta, LatencyModel, LoweredLayer, MappingShape, ModelScratch,
    SpecializedModel,
};
use ulm_network::{InterLayerOverlap, NetworkEvaluator};
use ulm_reactor::{Reactor, ReactorOptions, ReactorSummary, ShutdownHandle};
use ulm_serve::store::{write_log, CacheLog};
use ulm_serve::{
    fingerprint_value, EvalOutcome, EvalService, ReactorService, SearchMeta, ServeOptions,
    CACHE_LOG_FILE,
};
use ulm_workload::{networks, Layer, Precision};

/// Which request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeating working set; the read path.
    Hot,
    /// Every request distinct; the write path.
    Cold,
}

/// Requests per requested second, sized so a run's fixed request count
/// takes about `--seconds` on a 2-core x86-64 host.
const HOT_OPS_PER_SECOND: usize = 2_300;
const COLD_OPS_PER_SECOND: usize = 800;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Records in the populated result log each set-up replays.
const LOG_RECORDS: usize = 3_000;

/// Result-cache capacity (the library default).
const CACHE_CAPACITY: usize = 4_096;

/// Every how many requests per connection the traced run replays one
/// layer down.
const TRACE_EVERY: usize = 8;

/// Every how many cold search misses and net requests are re-run through
/// the library directly and compared.
const VERIFY_SEARCH_EVERY: usize = 16;
const VERIFY_NET_EVERY: usize = 8;

/// Layer dims of the request grid.
const DIMS: [u64; 10] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256];

/// GB bandwidths (bit/cycle) of the case-study presets in the grid.
const GB_BWS: [u64; 9] = [64, 96, 128, 192, 256, 384, 512, 768, 1024];

/// Whatif knobs.
const KNOBS: [&str; 6] = [
    "mem.GB.bw=2x",
    "mem.GB.bw=0.5x",
    "mem.W-LB.bw=2x",
    "mem.I-LB.bw=0.5x",
    "mem.W-LB.size=2x",
    "mem.I-LB.size=2x",
];

/// Request kinds, in the order the per-kind metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Eval,
    Search,
    Whatif,
    Surrogate,
    Net,
    Stats,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Eval => "eval",
            Kind::Search => "search",
            Kind::Whatif => "whatif",
            Kind::Surrogate => "surrogate",
            Kind::Net => "net",
            Kind::Stats => "stats",
        }
    }
}

/// Cold kind shares per 1,000 requests.
const COLD_SHARES: [(Kind, usize); 5] = [
    (Kind::Eval, 200),
    (Kind::Search, 330),
    (Kind::Whatif, 200),
    (Kind::Surrogate, 250),
    (Kind::Net, 20),
];

/// An architecture preset as a request names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Chip {
    /// `case16`, `case32`, `case64` or `validation`.
    name: &'static str,
    /// GB bandwidth, for the case-study presets.
    gb_bw: u64,
}

impl Chip {
    fn case(side: u64, gb_bw: u64) -> Self {
        let name = match side {
            16 => "case16",
            32 => "case32",
            _ => "case64",
        };
        Chip { name, gb_bw }
    }

    fn preset(self) -> PresetChip {
        match self.name {
            "case16" => presets::scaled_case_study_chip(16, self.gb_bw),
            "case32" => presets::scaled_case_study_chip(32, self.gb_bw),
            "case64" => presets::scaled_case_study_chip(64, self.gb_bw),
            _ => presets::validation_chip(),
        }
    }

    fn json(self) -> String {
        if self.name == "validation" {
            "\"arch\":\"validation\"".to_string()
        } else {
            format!("\"arch\":\"{}\",\"gb_bw\":{}", self.name, self.gb_bw)
        }
    }
}

fn matmul(dims: (u64, u64, u64)) -> Layer {
    let (b, k, c) = dims;
    Layer::matmul(format!("({b},{k},{c})"), b, k, c, Precision::int8_out24())
}

fn net_layers(name: &str) -> Vec<Layer> {
    match name {
        "attention-prefill" => networks::attention_prefill(),
        "handtracking" => networks::handtracking_validation_layers(),
        _ => networks::attention_decode(),
    }
}

/// What one request asks, enough to re-run it through the library.
#[derive(Debug, Clone)]
struct Spec {
    kind: Kind,
    chip: Chip,
    dims: (u64, u64, u64),
    /// Surrogate template dims.
    template: (u64, u64, u64),
    /// Whatif knob.
    knob: &'static str,
    /// Net preset.
    net: &'static str,
    /// Net mapper seed (distinct cold net requests).
    mapper_seed: Option<u64>,
    /// Eval mapping.
    mapping: Option<Mapping>,
}

impl Spec {
    fn new(kind: Kind, chip: Chip, dims: (u64, u64, u64)) -> Self {
        Spec {
            kind,
            chip,
            dims,
            template: dims,
            knob: KNOBS[0],
            net: "attention-decode",
            mapper_seed: None,
            mapping: None,
        }
    }

    fn mapper_options(&self) -> MapperOptions {
        MapperOptions {
            seed: self.mapper_seed.unwrap_or(MapperOptions::default().seed),
            ..MapperOptions::default()
        }
    }

    /// The NDJSON request line, newline-terminated.
    fn line(&self, id: usize) -> String {
        let (b, k, c) = self.dims;
        let head = format!("{{\"id\":{id},\"kind\":\"{}\"", self.kind.name());
        let arch = self.chip.json();
        let body = match self.kind {
            Kind::Stats => String::new(),
            Kind::Search => format!(",{arch},\"layer\":\"{b}x{k}x{c}\""),
            Kind::Eval => {
                let mapping = self.mapping.as_ref().expect("eval specs carry a mapping");
                let mapping =
                    serde_json::to_string(&mapping.to_value()).expect("printing is infallible");
                format!(",{arch},\"layer\":\"{b}x{k}x{c}\",\"mapping\":{mapping}")
            }
            Kind::Whatif => format!(
                ",{arch},\"layer\":\"{b}x{k}x{c}\",\"set\":[\"{}\"]",
                self.knob
            ),
            Kind::Surrogate => {
                let (tb, tk, tc) = self.template;
                format!(",{arch},\"layer\":\"{b}x{k}x{c}\",\"template\":\"{tb}x{tk}x{tc}\"")
            }
            Kind::Net => match self.mapper_seed {
                None => format!(",{arch},\"net\":\"{}\"", self.net),
                Some(s) => format!(
                    ",{arch},\"net\":\"{}\",\"mapper\":{{\"seed\":{s}}}",
                    self.net
                ),
            },
        };
        format!("{head}{body}}}\n")
    }
}

/// One distinct request of a workload.
struct Item {
    spec: Spec,
    line: String,
    /// Start of every successful answer: `{"id":<id>,"ok":true`.
    ok_prefix: String,
}

/// A generated workload: distinct items and, per connection, the item
/// indices it sends in order.
struct Workload {
    items: Vec<Item>,
    warmup: Vec<usize>,
    streams: Vec<Vec<usize>>,
}

/// A cheap mapping for an eval request (the client already holds one).
fn eval_mapping(chip: Chip, dims: (u64, u64, u64)) -> Result<Mapping, String> {
    let preset = chip.preset();
    let layer = matmul(dims);
    Mapper::new(&preset.arch, &layer, SpatialUnroll::new(preset.spatial))
        .with_options(MapperOptions {
            max_exhaustive: 64,
            samples: 8,
            ..MapperOptions::default()
        })
        .search(Objective::Latency)
        .map(|r| r.best.mapping)
        .map_err(|e| format!("no eval mapping for {dims:?} on {chip:?}: {e}"))
}

fn dims(rng: &mut Rng) -> (u64, u64, u64) {
    (*rng.pick(&DIMS), *rng.pick(&DIMS), *rng.pick(&DIMS))
}

/// A sequence of `ops` classes with the given shares exact within every
/// block of their sum, order seeded.
fn blocks<T: Copy>(shares: &[(T, usize)], ops: usize, rng: &mut Rng) -> Vec<T> {
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let mut block: Vec<T> = shares
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(ops);
    out
}

/// Splits a kind-tagged sequence over `clients` connections: surrogate
/// requests on connection 0, the rest to whichever has sent fewer.
fn split(seq: Vec<(Kind, usize)>, clients: usize) -> Vec<Vec<usize>> {
    let mut streams = vec![Vec::new(); clients];
    for (kind, item) in seq {
        let c = if kind == Kind::Surrogate {
            0
        } else {
            (0..clients).min_by_key(|&c| streams[c].len()).unwrap_or(0)
        };
        streams[c].push(item);
    }
    streams
}

fn finish(specs: Vec<Spec>, warmup: Vec<usize>, streams: Vec<Vec<usize>>) -> Workload {
    let items = specs
        .into_iter()
        .enumerate()
        .map(|(id, spec)| Item {
            line: spec.line(id),
            ok_prefix: format!("{{\"id\":{id},\"ok\":true"),
            spec,
        })
        .collect();
    Workload {
        items,
        warmup,
        streams,
    }
}

fn hot_workload(seed: u64, ops: usize, clients: usize) -> Result<Workload, String> {
    let mut rng = Rng::new(seed, 0x407);
    let chip = |rng: &mut Rng| Chip::case(*rng.pick(&[16, 32, 64]), *rng.pick(&[128, 256, 512]));
    let searches: Vec<Spec> = (0..16)
        .map(|_| Spec::new(Kind::Search, chip(&mut rng), dims(&mut rng)))
        .collect();
    let evals = (0..16)
        .map(|_| {
            let mut spec = Spec::new(Kind::Eval, chip(&mut rng), dims(&mut rng));
            spec.mapping = Some(eval_mapping(spec.chip, spec.dims)?);
            Ok(spec)
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Whatif bases are the search items, so every base is cached.
    let whatifs: Vec<Spec> = (0..12)
        .map(|i| {
            let base = &searches[i % searches.len()];
            let mut spec = Spec::new(Kind::Whatif, base.chip, base.dims);
            spec.knob = *rng.pick(&KNOBS);
            spec
        })
        .collect();
    // Three fixed specialization keys: the single slot thrashes.
    let mut surrogates = Vec::new();
    for (chip, template) in [
        (Chip::case(16, 128), (64, 96, 640)),
        (Chip::case(16, 128), (256, 256, 64)),
        (Chip::case(64, 128), (256, 256, 64)),
    ] {
        for _ in 0..4 {
            let mut spec = Spec::new(Kind::Surrogate, chip, dims(&mut rng));
            spec.template = template;
            surrogates.push(spec);
        }
    }
    let validation = Chip {
        name: "validation",
        gb_bw: 0,
    };
    let decodes: Vec<Spec> = [
        Chip::case(16, 128),
        Chip::case(32, 128),
        Chip::case(64, 128),
        validation,
    ]
    .into_iter()
    .map(|chip| Spec::new(Kind::Net, chip, (1, 1, 1)))
    .collect();
    let mut handtracking = Spec::new(Kind::Net, validation, (1, 1, 1));
    handtracking.net = "handtracking";
    let stats = Spec::new(Kind::Stats, Chip::case(16, 128), (1, 1, 1));

    // Shares per 1,000 requests. The hand-tracking net (about 10 ms, the
    // slowest request) holds 2%, so p99 falls in the middle of its band
    // instead of in the tail of cache hits that a busy host stalls for
    // milliseconds.
    let mut specs = Vec::new();
    let mut classes = Vec::new();
    for (class, share) in [
        (searches, 300),
        (evals, 300),
        (whatifs, 180),
        (surrogates, 100),
        (decodes, 98),
        (vec![handtracking], 20),
        (vec![stats], 2),
    ] {
        let start = specs.len();
        specs.extend(class);
        classes.push(((start..specs.len()).collect::<Vec<_>>(), share));
    }
    let shares: Vec<(usize, usize)> = classes
        .iter()
        .enumerate()
        .map(|(c, (_, share))| (c, *share))
        .collect();
    let seq = blocks(&shares, ops, &mut rng)
        .into_iter()
        .map(|c| {
            let item = *rng.pick(&classes[c].0);
            (specs[item].kind, item)
        })
        .collect();
    let warmup = (0..specs.len()).collect();
    Ok(finish(specs, warmup, split(seq, clients)))
}

/// Cold requests needed beyond the measured ones, for the warm-up pass.
const COLD_WARMUP: usize = 40;

fn cold_workload(seed: u64, ops: usize, clients: usize) -> Result<Workload, String> {
    let mut rng = Rng::new(seed, 0xC01D);
    // Every (chip, dims) tuple of the grid at most once.
    let mut grid = Vec::new();
    for side in [16, 32, 64] {
        for bw in GB_BWS {
            for b in DIMS {
                for k in DIMS {
                    for c in DIMS {
                        grid.push((Chip::case(side, bw), (b, k, c)));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut grid);
    let total = ops + COLD_WARMUP;
    if total > grid.len() {
        return Err(format!(
            "serve-cold needs {total} distinct requests; the grid has {}",
            grid.len()
        ));
    }
    let mut tuples = grid.into_iter();
    let mut specs = Vec::with_capacity(total);
    let mut seq = Vec::with_capacity(ops);
    let (net_offset, mut nets_drawn) = (rng.below(2), 0);
    // The warm-up pass sends the last `COLD_WARMUP` requests.
    for (i, kind) in blocks(&COLD_SHARES, total, &mut rng)
        .into_iter()
        .enumerate()
    {
        let spec = match kind {
            Kind::Net => {
                // Nets alternate between two chips whose prefill costs
                // agree (about 27 ms), so the 2% of requests that are nets
                // form one latency band and p99 falls in its middle.
                let bw = [512, 1024][(net_offset + nets_drawn) % 2];
                nets_drawn += 1;
                let mut spec = Spec::new(Kind::Net, Chip::case(32, bw), (1, 1, 1));
                spec.net = "attention-prefill";
                spec.mapper_seed = Some(i as u64 + 1);
                spec
            }
            _ => {
                let (chip, dims) = tuples.next().expect("grid size checked above");
                let mut spec = Spec::new(kind, chip, dims);
                match kind {
                    Kind::Eval => spec.mapping = Some(eval_mapping(chip, dims)?),
                    Kind::Whatif => spec.knob = *rng.pick(&KNOBS),
                    Kind::Surrogate => spec.dims = (2 * dims.0, dims.1, dims.2),
                    _ => {}
                }
                spec
            }
        };
        if i < ops {
            seq.push((kind, i));
        }
        specs.push(spec);
    }
    let warmup = (ops..total).collect();
    Ok(finish(specs, warmup, split(seq, clients)))
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Real search outcomes, serialized as the service logs them; the
/// populated log repeats them under distinct fingerprints.
fn filler_payloads() -> Result<Vec<Vec<u8>>, String> {
    let mut out = Vec::new();
    for (side, dims) in [
        (16, (64, 96, 640)),
        (32, (128, 128, 128)),
        (64, (256, 256, 64)),
        (16, (32, 64, 256)),
        (32, (96, 48, 192)),
        (64, (24, 128, 96)),
        (16, (256, 32, 32)),
        (32, (16, 256, 64)),
    ] {
        let preset = Chip::case(side, 128).preset();
        let layer = matmul(dims);
        let r = Mapper::new(&preset.arch, &layer, SpatialUnroll::new(preset.spatial))
            .search(Objective::Latency)
            .map_err(|e| format!("filler search: {e}"))?;
        let outcome = EvalOutcome {
            mapping: r.best.mapping,
            latency: r.best.latency,
            energy: r.best.energy,
            search: Some(SearchMeta {
                exhaustive: r.exhaustive,
                stats: r.stats,
            }),
        };
        out.push(
            serde_json::to_string(&outcome.to_value())
                .expect("printing is infallible")
                .into_bytes(),
        );
    }
    Ok(out)
}

/// A scratch directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn log(&self) -> PathBuf {
        self.0.join(CACHE_LOG_FILE)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        cache_capacity: CACHE_CAPACITY,
        cache_dir: Some(dir.to_path_buf()),
        include_timing: false,
        ..ServeOptions::default()
    }
}

/// Writes the populated log every set-up starts from and returns its
/// bytes: filler records, plus, for the hot mix, the working set's
/// eval/search answers computed by the service itself.
fn populate(mix: Mix, w: &Workload, scratch: &Scratch, seed: u64) -> Result<Vec<u8>, String> {
    let payloads = filler_payloads()?;
    let mut rng = Rng::new(seed, 0x106);
    let entries: Vec<(u128, Vec<u8>)> = (0..LOG_RECORDS)
        .map(|i| {
            let fp = (u128::from(rng.next()) << 64) | u128::from(rng.next());
            (fp, payloads[i % payloads.len()].clone())
        })
        .collect();
    write_log(&scratch.log(), &entries).map_err(|e| format!("writing the log: {e}"))?;
    if mix == Mix::Hot {
        let service = EvalService::open(options(&scratch.0)).map_err(|e| e.to_string())?;
        for item in &w.items {
            if matches!(item.spec.kind, Kind::Eval | Kind::Search) {
                service.handle_line(&item.line);
            }
        }
    }
    std::fs::read(scratch.log()).map_err(|e| format!("reading the log: {e}"))
}

/// A client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends one newline-terminated request and reads its answer.
    fn call(&mut self, line: &str, answer: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        answer.clear();
        if self.reader.read_line(answer)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if answer.ends_with('\n') {
            answer.pop();
        }
        Ok(())
    }
}

/// A running service: the reactor thread and its client connections.
struct Server {
    service: Arc<EvalService>,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<Result<ReactorSummary, String>>,
    conns: Vec<Conn>,
}

impl Server {
    /// `EvalService::open` on the populated log, the reactor, and the
    /// client connections.
    fn start(dir: &Path, clients: usize) -> Result<Self, String> {
        let service = EvalService::open(options(dir)).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let reactor = Reactor::new(
            listener,
            ReactorOptions {
                max_line_len: service.max_line_len(),
                ..ReactorOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let addr = reactor.local_addr().map_err(|e| e.to_string())?;
        let shutdown = reactor.shutdown_handle();
        let served = ReactorService::new(Arc::clone(&service));
        let thread = std::thread::spawn(move || reactor.run(&served).map_err(|e| e.to_string()));
        let conns = (0..clients)
            .map(|_| Conn::connect(addr))
            .collect::<Result<Vec<_>, _>>();
        let mut server = Server {
            service,
            shutdown,
            thread,
            conns: Vec::new(),
        };
        match conns {
            Ok(conns) => {
                server.conns = conns;
                Ok(server)
            }
            Err(e) => {
                let _ = server.stop();
                Err(format!("connecting: {e}"))
            }
        }
    }

    /// Closes the connections, drains the reactor and joins its thread.
    fn stop(self) -> Result<ReactorSummary, String> {
        drop(self.conns);
        self.shutdown.shutdown();
        self.thread
            .join()
            .map_err(|_| "the reactor thread panicked".to_string())?
    }
}

// ---------------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------------

/// Answers a checked response must equal, by item (hot mix).
type Expected = HashMap<usize, String>;

/// Normalizes what may legitimately differ between two answers to one
/// request: whether the shared specialization slot was reused.
fn normalized(answer: &str) -> std::borrow::Cow<'_, str> {
    if answer.contains("\"specialized_reused\":true") {
        answer
            .replace(
                "\"specialized_reused\":true",
                "\"specialized_reused\":false",
            )
            .into()
    } else {
        answer.into()
    }
}

/// Checks one answer; returns whether it is correct.
fn check(item: &Item, idx: usize, answer: &str, expected: Option<&Expected>) -> bool {
    if !answer.starts_with(&item.ok_prefix) {
        return false;
    }
    match (expected, item.spec.kind) {
        (_, Kind::Stats) | (None, _) => true,
        (Some(exp), _) => exp
            .get(&idx)
            .is_some_and(|first| normalized(first) == normalized(answer)),
    }
}

/// What one connection measured.
#[derive(Default)]
struct ClientRun {
    latency_ms: Vec<f64>,
    failed: u64,
    net_cached: u64,
    net_total: u64,
    /// (item, answer) pairs kept for verification.
    samples: Vec<(usize, String)>,
    traced: Option<ClientTrace>,
}

/// A traced connection's spans and probe state.
struct ClientTrace {
    tracer: Tracer,
    probes: Probes,
    /// Specializations for replaying surrogate queries.
    specs: HashMap<(Chip, (u64, u64, u64)), SpecializedModel>,
    /// A log of its own for replaying appends.
    log: CacheLog,
}

/// Per-layer sums from the traced replays.
#[derive(Default)]
struct Probes {
    ops: u64,
    reactor_us: f64,
    pool_us: f64,
    fingerprint_us: f64,
    server_us: f64,
    lib_us: HashMap<&'static str, f64>,
    untraced_us: f64,
    request_us: f64,
    hit_us: Vec<f64>,
    kind_ms: HashMap<Kind, Vec<f64>>,
    call_us: HashMap<&'static str, Vec<f64>>,
    mapper_generated: u64,
    mismatches: u64,
}

impl Probes {
    fn absorb(&mut self, o: Probes) {
        self.ops += o.ops;
        self.reactor_us += o.reactor_us;
        self.pool_us += o.pool_us;
        self.fingerprint_us += o.fingerprint_us;
        self.server_us += o.server_us;
        self.untraced_us += o.untraced_us;
        self.request_us += o.request_us;
        for (k, v) in o.lib_us {
            *self.lib_us.entry(k).or_default() += v;
        }
        self.hit_us.extend(o.hit_us);
        for (k, v) in o.kind_ms {
            self.kind_ms.entry(k).or_default().extend(v);
        }
        for (k, v) in o.call_us {
            self.call_us.entry(k).or_default().extend(v);
        }
        self.mapper_generated += o.mapper_generated;
        self.mismatches += o.mismatches;
    }
}

/// One measured phase over both connections.
struct Phase {
    wall_s: f64,
    runs: Vec<ClientRun>,
}

/// What a traced connection needs besides its stream.
struct TraceCtx<'a> {
    epoch: Instant,
    service: &'a Arc<EvalService>,
    /// Untraced latency per connection and position.
    untraced_ms: &'a [Vec<f64>],
    scratch: &'a Path,
}

fn drive(
    w: &Workload,
    conns: &mut [Conn],
    expected: Option<&Expected>,
    mix: Mix,
    trace: Option<&TraceCtx<'_>>,
) -> Result<Phase, String> {
    let t0 = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&w.streams)
            .enumerate()
            .map(|(c, (conn, stream))| {
                scope.spawn(move || client(w, c, conn, stream, expected, mix, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
    })
}

fn client(
    w: &Workload,
    c: usize,
    conn: &mut Conn,
    stream: &[usize],
    expected: Option<&Expected>,
    mix: Mix,
    trace: Option<&TraceCtx<'_>>,
) -> Result<ClientRun, String> {
    let traced = trace
        .map(|ctx| -> Result<ClientTrace, String> {
            let path = ctx.scratch.join(format!("append-probe-{c}.ulmlog"));
            Ok(ClientTrace {
                tracer: Tracer::new(ctx.epoch),
                probes: Probes::default(),
                specs: HashMap::new(),
                log: CacheLog::open(&path).map_err(|e| e.to_string())?.0,
            })
        })
        .transpose()?;
    let mut run = ClientRun {
        latency_ms: Vec::with_capacity(stream.len()),
        traced,
        ..ClientRun::default()
    };
    let mut answer = String::new();
    let (mut searches, mut nets) = (0usize, 0usize);
    for (pos, &idx) in stream.iter().enumerate() {
        let item = &w.items[idx];
        let op = (c as u64) << 32 | pos as u64;
        let start = Instant::now();
        let (res, root) = match run.traced.as_mut() {
            Some(t) => {
                let (res, root) = t.tracer.span("client.request", op, None, || {
                    conn.call(&item.line, &mut answer)
                });
                (res, Some(root))
            }
            None => (conn.call(&item.line, &mut answer), None),
        };
        res.map_err(|e| format!("request {idx}: {e}"))?;
        run.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if !check(item, idx, &answer, expected) {
            run.failed += 1;
            if run.failed <= 3 {
                eprintln!(
                    "wrong answer to request {idx}: {}",
                    &answer[..answer.len().min(300)]
                );
            }
        }
        match item.spec.kind {
            Kind::Net => {
                run.net_total += 1;
                run.net_cached += u64::from(answer.contains("\"cached\":true"));
                if mix == Mix::Cold && nets % VERIFY_NET_EVERY == 0 {
                    run.samples.push((idx, answer.clone()));
                }
                nets += 1;
            }
            Kind::Search if mix == Mix::Cold => {
                if searches % VERIFY_SEARCH_EVERY == 0 {
                    run.samples.push((idx, answer.clone()));
                }
                searches += 1;
            }
            _ => {}
        }
        if let (Some(ctx), Some(t), Some(root)) = (trace, run.traced.as_mut(), root) {
            if pos % TRACE_EVERY == 0 {
                let untraced_us = ctx.untraced_ms[c][pos] * 1e3;
                replay(ctx, t, conn, item, &answer, op, root, untraced_us)?;
            }
        }
    }
    Ok(run)
}

/// Times one library call as a child span of `parent`.
fn timed<T>(
    tracer: &mut Tracer,
    probes: &mut Probes,
    name: &'static str,
    op: u64,
    parent: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let (value, span) = tracer.span(name, op, Some(parent), f);
    let us = tracer.us(span);
    probes.call_us.entry(name).or_default().push(us);
    (value, us)
}

/// Replays one request one layer down — through the reactor again,
/// `submit_line().wait()`, `handle_line`, `fingerprint_value` — then
/// re-issues the library calls the request made, and records the self
/// time of each layer on its blocking path. Library results must equal
/// the served answer.
#[allow(clippy::too_many_arguments)]
fn replay(
    ctx: &TraceCtx<'_>,
    t: &mut ClientTrace,
    conn: &mut Conn,
    item: &Item,
    answer: &str,
    op: u64,
    root: usize,
    untraced_us: f64,
) -> Result<(), String> {
    let ClientTrace {
        tracer,
        probes,
        specs,
        log,
    } = t;
    let line = item.line.trim_end();
    let mut again = String::new();
    let (res, rt) = tracer.span("reactor.replay", op, Some(root), || {
        conn.call(&item.line, &mut again)
    });
    res.map_err(|e| format!("replay: {e}"))?;
    // `handle_line` runs on this thread, the pool job on a worker: time
    // it on both sides of the pool replay and keep the faster, so warm
    // caches on one side do not show up as pool time.
    let (_, before) = tracer.span("server.handle_line", op, Some(rt), || {
        ctx.service.handle_line(line)
    });
    let (_, pool) = tracer.span("pool.submit_line_wait", op, Some(rt), || {
        ctx.service.submit_line(line.to_string()).wait()
    });
    let (_, after) = tracer.span("server.handle_line", op, Some(pool), || {
        ctx.service.handle_line(line)
    });
    let handle = if tracer.us(before) < tracer.us(after) {
        before
    } else {
        after
    };
    let request: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let (_, fp) = tracer.span("fingerprint.value", op, Some(handle), || {
        fingerprint_value(&request)
    });
    let spec = &item.spec;
    let miss = answer.contains("\"cached\":false");
    // Library time the request spent, by layer (`real`), and the part
    // of it the `handle_line` replay repeated (`replayed`).
    let mut real: Vec<(&'static str, f64)> = Vec::new();
    let mut replayed = 0.0;
    let mut ok = true;
    let preset = spec.chip.preset();
    let spatial = SpatialUnroll::new(preset.spatial.clone());
    let layer = matmul(spec.dims);
    let model = LatencyModel::new();
    let search = |layer: &Layer| {
        Mapper::new(&preset.arch, layer, spatial.clone())
            .with_options(spec.mapper_options())
            .search(Objective::Latency)
    };
    match spec.kind {
        Kind::Eval if miss => {
            let mapping = spec.mapping.as_ref().expect("eval specs carry a mapping");
            let view =
                MappedLayer::new(&layer, &preset.arch, mapping).map_err(|e| e.to_string())?;
            let (lowered, us) = timed(tracer, probes, "model.lower", op, handle, || {
                LoweredLayer::build(&view, model.dtl_options())
            });
            real.push(("model", us));
            let (report, us) = timed(tracer, probes, "model.evaluate_lowered", op, handle, || {
                model.evaluate_lowered(&view, &lowered)
            });
            real.push(("model", us));
            ok &= answer_has_cc(answer, report.cc_total);
            let (_, us) = timed(
                tracer,
                probes,
                "energy.evaluate_lowered",
                op,
                handle,
                || EnergyModel::new().evaluate_lowered(&view, &lowered),
            );
            real.push(("energy", us));
        }
        Kind::Search if miss => {
            let (r, us) = timed(tracer, probes, "mapper.search", op, handle, || {
                search(&layer)
            });
            real.push(("mapper", us));
            let r = r.map_err(|e| e.to_string())?;
            probes.mapper_generated += r.stats.generated as u64;
            ok &= answer_has_cc(answer, r.best.latency.cc_total);
        }
        Kind::Whatif => {
            let mapping: Mapping = if miss {
                let (r, us) = timed(tracer, probes, "mapper.search", op, handle, || {
                    search(&layer)
                });
                real.push(("mapper", us));
                let r = r.map_err(|e| e.to_string())?;
                probes.mapper_generated += r.stats.generated as u64;
                r.best.mapping
            } else {
                let v: Value = serde_json::from_str(answer).map_err(|e| e.to_string())?;
                let m = v.get("mapping").ok_or("whatif answer without a mapping")?;
                serde::Deserialize::from_value(m).map_err(|e| format!("{e:?}"))?
            };
            let (arch, delta) =
                apply_overrides(&preset.arch, &[spec.knob]).map_err(|e| e.to_string())?;
            let base_view =
                MappedLayer::new(&layer, &preset.arch, &mapping).map_err(|e| e.to_string())?;
            let view = MappedLayer::new(&layer, &arch, &mapping).map_err(|e| e.to_string())?;
            let mut scratch = ModelScratch::default();
            let (fast, us) = timed(tracer, probes, "model.delta", op, handle, || {
                model.evaluate_delta_fast(&base_view, InputDelta::ALL, &mut scratch);
                model.evaluate_delta_fast(&view, delta, &mut scratch).0
            });
            real.push(("model", us));
            replayed += us;
            ok &= serde_json::from_str::<Value>(answer)
                .ok()
                .and_then(|v| v.get("modified")?.get("cc_total")?.as_f64())
                .is_some_and(|x| x.to_bits() == fast.cc_total.to_bits());
            let (_, us) = timed(
                tracer,
                probes,
                "energy.evaluate_lowered",
                op,
                handle,
                || EnergyModel::new().evaluate_lowered(&view, scratch.lowered()),
            );
            real.push(("energy", us));
            replayed += us;
        }
        Kind::Surrogate => {
            let slot_miss = answer.contains("\"specialized_reused\":false");
            let template = matmul(spec.template);
            let key = (spec.chip, spec.template);
            if slot_miss || !specs.contains_key(&key) {
                let (r, search_us) = timed(tracer, probes, "mapper.search", op, handle, || {
                    search(&template)
                });
                let r = r.map_err(|e| e.to_string())?;
                let shape =
                    MappingShape::from_mapping(&r.best.mapping).map_err(|e| e.to_string())?;
                let (prepared, prepare_us) = timed(
                    tracer,
                    probes,
                    "model.surrogate_prepare",
                    op,
                    handle,
                    || SpecializedModel::prepare(model, &preset.arch, &template, shape),
                );
                probes.mapper_generated += r.stats.generated as u64;
                if slot_miss {
                    real.push(("mapper", search_us));
                    real.push(("model", prepare_us));
                }
                specs.insert(key, prepared.map_err(|e| e.to_string())?);
            }
            let spec_model = specs.get_mut(&key).expect("inserted above");
            let (b, k, c) = spec.dims;
            let (fast, us) = timed(tracer, probes, "model.surrogate_query", op, handle, || {
                spec_model.query(b, k, c)
            });
            real.push(("model", us));
            replayed += us;
            ok &= fast.is_ok_and(|f| answer_has_cc(answer, f.cc_total));
        }
        Kind::Net => {
            let evaluator = NetworkEvaluator::new(&preset.arch, spatial.clone())
                .with_overlap(InterLayerOverlap::None)
                .with_objective(Objective::Latency)
                .with_mapper_options(spec.mapper_options());
            let layers = net_layers(spec.net);
            let name = match spec.net {
                "attention-prefill" => "network.attention_prefill",
                "handtracking" => "network.handtracking",
                _ => "network.attention_decode",
            };
            let (r, us) = timed(tracer, probes, name, op, handle, || {
                evaluator.evaluate(&layers)
            });
            real.push(("network", us));
            replayed += us;
            ok &= r.is_ok_and(|r| answer_has_number(answer, "total_cycles", r.total_cycles()));
        }
        _ => {}
    }
    // A miss also appended its answer to the durable log.
    if miss && matches!(spec.kind, Kind::Eval | Kind::Search | Kind::Whatif) {
        let (res, us) = timed(tracer, probes, "store.append", op, handle, || {
            log.append(u128::from(op), answer.as_bytes())
        });
        res.map_err(|e| e.to_string())?;
        real.push(("store", us));
    }
    probes.mismatches += u64::from(!ok);

    let (rt_us, pool_us, handle_us, fp_us) = (
        tracer.us(rt),
        tracer.us(pool),
        tracer.us(handle),
        tracer.us(fp),
    );
    let real_us: f64 = real.iter().map(|&(_, us)| us).sum();
    probes.ops += 1;
    probes.reactor_us += rt_us - pool_us;
    probes.pool_us += pool_us - handle_us;
    probes.fingerprint_us += fp_us;
    probes.server_us += (handle_us - fp_us - replayed).max(0.0);
    for (layer, us) in real {
        *probes.lib_us.entry(layer).or_default() += us;
    }
    probes.untraced_us += untraced_us;
    probes.request_us += tracer.us(root);
    if matches!(spec.kind, Kind::Eval | Kind::Search) {
        probes.hit_us.push(handle_us);
    }
    probes
        .kind_ms
        .entry(spec.kind)
        .or_default()
        .push((handle_us - replayed + real_us) / 1e3);
    Ok(())
}

/// Whether the answer's `latency.cc_total` has exactly these bits.
fn answer_has_cc(answer: &str, cc_total: f64) -> bool {
    serde_json::from_str::<Value>(answer)
        .ok()
        .and_then(|v| v.get("latency")?.get("cc_total")?.as_f64())
        .is_some_and(|x| x.to_bits() == cc_total.to_bits())
}

/// Whether the answer's top-level `key` has exactly these bits.
fn answer_has_number(answer: &str, key: &str, value: f64) -> bool {
    serde_json::from_str::<Value>(answer)
        .ok()
        .and_then(|v| v.get(key)?.as_f64())
        .is_some_and(|x| x.to_bits() == value.to_bits())
}

/// Re-runs a sampled miss directly through the library; returns whether
/// the served answer equals it.
fn verify(item: &Item, answer: &str) -> bool {
    let spec = &item.spec;
    let preset = spec.chip.preset();
    let spatial = SpatialUnroll::new(preset.spatial.clone());
    match spec.kind {
        Kind::Search => {
            let layer = matmul(spec.dims);
            let Ok(r) = Mapper::new(&preset.arch, &layer, spatial)
                .with_options(spec.mapper_options())
                .search(Objective::Latency)
            else {
                return false;
            };
            let text = serde_json::from_str::<Value>(answer)
                .ok()
                .and_then(|v| v.get("mapping_text")?.as_str().map(str::to_string));
            text.as_deref() == Some(r.best.mapping.to_string().as_str())
                && answer_has_cc(answer, r.best.latency.cc_total)
        }
        Kind::Net => NetworkEvaluator::new(&preset.arch, spatial)
            .with_overlap(InterLayerOverlap::None)
            .with_objective(Objective::Latency)
            .with_mapper_options(spec.mapper_options())
            .evaluate(&net_layers(spec.net))
            .is_ok_and(|r| {
                answer_has_number(answer, "total_cycles", r.total_cycles())
                    && answer_has_number(answer, "total_fj", r.total_fj())
            }),
        _ => true,
    }
}

/// Warm-up pass: every warm-up item once, in order, on the first
/// connection. Returns the answers by item and the wrong ones.
fn warm_up(w: &Workload, conn: &mut Conn) -> Result<(Expected, u64), String> {
    let mut answers = Expected::new();
    let mut failed = 0;
    for &idx in &w.warmup {
        let mut answer = String::new();
        conn.call(&w.items[idx].line, &mut answer)
            .map_err(|e| format!("warm-up request {idx}: {e}"))?;
        failed += u64::from(!check(&w.items[idx], idx, &answer, None));
        answers.insert(idx, answer);
    }
    Ok((answers, failed))
}

/// One set-up: restore the populated log (untimed), then time
/// `EvalService::open`, the reactor start and the warm-up pass.
fn setup(
    w: &Workload,
    scratch: &Scratch,
    seed_log: &[u8],
    clients: usize,
) -> Result<(f64, Server, Expected, u64), String> {
    std::fs::write(scratch.log(), seed_log).map_err(|e| format!("restoring the log: {e}"))?;
    let t0 = Instant::now();
    let mut server = Server::start(&scratch.0, clients)?;
    let (answers, failed) = warm_up(w, &mut server.conns[0])?;
    Ok((t0.elapsed().as_secs_f64(), server, answers, failed))
}

/// Hot answers a repeat must equal, after checking the warm-up answers
/// of search and net items against direct library calls.
fn hot_expected(w: &Workload, answers: Expected) -> (Expected, u64) {
    let failed = answers
        .iter()
        .filter(|&(&idx, a)| {
            let item = &w.items[idx];
            matches!(item.spec.kind, Kind::Search | Kind::Net) && !verify(item, a)
        })
        .count() as u64;
    (answers, failed)
}

fn verify_samples(w: &Workload, phase: &Phase) -> u64 {
    phase
        .runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|(idx, answer)| !verify(&w.items[*idx], answer))
        .count() as u64
}

/// Runs the workload.
pub fn run(mix: Mix, args: &Args) -> Result<Report, String> {
    let clients = metrics::nproc().clamp(1, 2);
    let per_second = match mix {
        Mix::Hot => HOT_OPS_PER_SECOND,
        Mix::Cold => COLD_OPS_PER_SECOND,
    };
    let ops = per_second * args.seconds as usize;
    let w = match mix {
        Mix::Hot => hot_workload(args.seed, ops, clients)?,
        Mix::Cold => cold_workload(args.seed, ops, clients)?,
    };
    let scratch = Scratch::new(&args.workload)?;
    let seed_log = populate(mix, &w, &scratch, args.seed)?;

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut failed = 0;
    let mut server = None;
    let mut expected = Expected::new();
    for rep in 0..reps {
        let (s, srv, answers, f) = setup(&w, &scratch, &seed_log, clients)?;
        setups.push(s);
        failed += f;
        if rep + 1 < reps {
            srv.stop()?;
        } else {
            server = Some(srv);
            expected = answers;
        }
    }
    let mut server = server.expect("at least one set-up");
    let expected = match mix {
        Mix::Hot => {
            let (e, f) = hot_expected(&w, expected);
            failed += f;
            Some(e)
        }
        Mix::Cold => None,
    };
    let phase = drive(&w, &mut server.conns, expected.as_ref(), mix, None)?;
    let rss = metrics::peak_rss_mb();
    let service = Arc::clone(&server.service);
    let summary = server.stop()?;
    failed += phase.runs.iter().map(|r| r.failed).sum::<u64>();
    failed += verify_samples(&w, &phase);
    let attempted = ops as u64;

    if !args.trace {
        // Pooled over the whole phase: the host's speed drifts over
        // seconds, and pooling averages that drift where per-window
        // medians would pick one side of it.
        let latency: Vec<f64> = phase
            .runs
            .iter()
            .flat_map(|r| r.latency_ms.iter().copied())
            .collect();
        return Ok(Report::end_to_end(
            attempted,
            failed,
            [
                median(&setups),
                ops as f64 / phase.wall_s,
                percentile(&latency, 0.50),
                percentile(&latency, 0.99),
                rss,
            ],
        ));
    }

    // Counters of the untraced phase, from the public stats structs.
    let mut layers = Layers::new();
    let cache = service.cache_stats();
    let pool = service.pool_stats();
    let search = service.search_totals();
    let whatif = service.whatif_totals();
    let surrogate = service.surrogate_totals();
    let disk = service.disk_stats().ok_or("the service has no cache log")?;
    drop(service);
    let (net_cached, net_total) = phase
        .runs
        .iter()
        .fold((0, 0), |(c, t), r| (c + r.net_cached, t + r.net_total));
    let s = search.stats;
    for (name, value) in [
        ("reactor.requests", summary.requests as f64),
        ("reactor.responses", summary.responses as f64),
        ("pool.submitted", pool.submitted as f64),
        ("pool.completed", pool.completed as f64),
        (
            "cache.hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        ),
        ("cache.lookups", (cache.hits + cache.misses) as f64),
        ("cache.evictions", cache.evictions as f64),
        (
            "cache.net_cached_ratio",
            ratio(net_cached as f64, net_total as f64),
        ),
        ("cache.net_requests", net_total as f64),
        ("store.replayed_records", disk.replayed_records as f64),
        ("store.appends", disk.appends as f64),
        ("store.compactions", disk.compactions as f64),
        (
            "mapper.prune_ratio",
            ratio(s.pruned as f64, s.generated as f64),
        ),
        ("mapper.generated", s.generated as f64),
        ("mapper.evaluated", s.evaluated as f64),
        ("mapper.prefix_reuses", s.cache_hits as f64),
        ("search.searches", search.searches as f64),
        (
            "surrogate.slot_hit_ratio",
            ratio(surrogate.hits as f64, surrogate.requests as f64),
        ),
        ("surrogate.requests", surrogate.requests as f64),
        ("whatif.requests", whatif.requests as f64),
        ("whatif.delta_hits", whatif.delta_hits as f64),
        ("run.ops", attempted as f64),
        ("run.nproc", metrics::nproc() as f64),
    ] {
        layers.insert(name, value);
    }
    network_shapes(&w, &mut layers);

    // `CacheLog::open` on the populated log, alone.
    let mut replay_ms = Vec::new();
    for _ in 0..3 {
        std::fs::write(scratch.log(), &seed_log).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let opened = CacheLog::open(&scratch.log()).map_err(|e| e.to_string())?;
        replay_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(opened);
    }
    layers.insert("store.replay_ms", median(&replay_ms));

    // The traced phase: a fresh set-up, the same streams, with replays.
    let untraced_ms: Vec<Vec<f64>> = phase.runs.iter().map(|r| r.latency_ms.clone()).collect();
    let (_, mut server, answers, f) = setup(&w, &scratch, &seed_log, clients)?;
    failed += f;
    failed += answers
        .iter()
        .filter(|&(&idx, a)| !check(&w.items[idx], idx, a, expected.as_ref()))
        .count() as u64;
    let epoch = Instant::now();
    let ctx = TraceCtx {
        epoch,
        service: &server.service,
        untraced_ms: &untraced_ms,
        scratch: &scratch.0,
    };
    let traced = drive(&w, &mut server.conns, expected.as_ref(), mix, Some(&ctx))?;
    server.stop()?;
    let mut tracer = Tracer::new(epoch);
    let mut probes = Probes::default();
    for run in traced.runs {
        failed += run.failed;
        if let Some(t) = run.traced {
            probes.absorb(t.probes);
            tracer.absorb(t.tracer);
        }
    }
    failed += probes.mismatches;
    trace_layers(&probes, &mut layers);
    layers.insert(
        "trace.overhead_pct",
        ratio(traced.wall_s - phase.wall_s, phase.wall_s) * 100.0,
    );
    layers.insert("trace.spans", tracer.len() as f64);
    failed += validate::accuracy_into(&mut layers);
    metrics::warn_coverage(&layers);
    tracer
        .write(
            &trace_path(&args.workload, args.seed),
            &metrics::stamp(args, attempted),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(Report::per_layer(attempted, failed, &layers))
}

/// Distinct layer shapes over the layers of the nets the workload asks
/// for.
fn network_shapes(w: &Workload, layers: &mut Layers) {
    let nets: BTreeSet<&str> = w
        .items
        .iter()
        .filter(|i| i.spec.kind == Kind::Net)
        .map(|i| i.spec.net)
        .collect();
    let all: Vec<Layer> = nets.iter().flat_map(|n| net_layers(n)).collect();
    let shapes: BTreeSet<String> = all.iter().map(|l| format!("{:?}", l.shape())).collect();
    layers.insert(
        "network.distinct_shape_ratio",
        ratio(shapes.len() as f64, all.len() as f64),
    );
    layers.insert("network.layers", all.len() as f64);
}

fn trace_layers(p: &Probes, layers: &mut Layers) {
    let n = p.ops.max(1) as f64;
    let lib = |name: &str| p.lib_us.get(name).copied().unwrap_or(0.0) / n;
    let calls = |name: &str| p.call_us.get(name).map_or(0.0, |v| mean(v));
    let kind = |k: Kind| p.kind_ms.get(&k).map_or(0.0, |v| mean(v));
    let path = [
        ("path.reactor_us", p.reactor_us / n),
        ("path.pool_us", p.pool_us / n),
        ("path.fingerprint_us", p.fingerprint_us / n),
        ("path.server_us", p.server_us / n),
        ("path.store_us", lib("store")),
        ("path.mapper_us", lib("mapper")),
        ("path.model_us", lib("model")),
        ("path.energy_us", lib("energy")),
        ("path.network_us", lib("network")),
    ];
    let total: f64 = path.iter().map(|&(_, v)| v).sum();
    let untraced = p.untraced_us / n;
    let mapper_total_us: f64 = p
        .call_us
        .get("mapper.search")
        .map_or(0.0, |v| v.iter().sum());
    let net_calls: Vec<f64> = [
        "network.attention_decode",
        "network.attention_prefill",
        "network.handtracking",
    ]
    .iter()
    .flat_map(|k| p.call_us.get(k).cloned().unwrap_or_default())
    .collect();
    for (name, value) in path.into_iter().chain([
        ("path.total_us", total),
        ("path.untraced_us", untraced),
        ("path.request_us", p.request_us / n),
        ("path.coverage", ratio(total, untraced)),
        ("reactor.self_us", p.reactor_us / n),
        ("pool.wait_us", p.pool_us / n),
        ("server.self_us", p.server_us / n),
        ("fingerprint.us", p.fingerprint_us / n),
        ("server.hit_us", mean(&p.hit_us)),
        ("server.stats_ms", kind(Kind::Stats)),
        ("server.eval_ms", kind(Kind::Eval)),
        ("server.search_ms", kind(Kind::Search)),
        ("server.whatif_ms", kind(Kind::Whatif)),
        ("server.surrogate_ms", kind(Kind::Surrogate)),
        ("server.net_ms", kind(Kind::Net)),
        ("store.append_us", calls("store.append")),
        ("mapper.search_ms", calls("mapper.search") / 1e3),
        (
            "mapper.orderings_per_s",
            ratio(p.mapper_generated as f64, mapper_total_us / 1e6),
        ),
        ("model.lower_us", calls("model.lower")),
        ("model.evaluate_lowered_us", calls("model.evaluate_lowered")),
        ("model.delta_us", calls("model.delta")),
        (
            "model.surrogate_prepare_ms",
            calls("model.surrogate_prepare") / 1e3,
        ),
        ("model.surrogate_query_us", calls("model.surrogate_query")),
        (
            "energy.evaluate_lowered_us",
            calls("energy.evaluate_lowered"),
        ),
        ("network.evaluate_ms", mean(&net_calls) / 1e3),
        (
            "network.attention_decode_ms",
            calls("network.attention_decode") / 1e3,
        ),
        (
            "network.attention_prefill_ms",
            calls("network.attention_prefill") / 1e3,
        ),
        (
            "network.handtracking_ms",
            calls("network.handtracking") / 1e3,
        ),
    ]) {
        layers.insert(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(kind: Kind, id: usize) -> Item {
        let spec = Spec::new(kind, Chip::case(16, 128), (64, 96, 640));
        Item {
            line: spec.line(id),
            ok_prefix: format!("{{\"id\":{id},\"ok\":true"),
            spec,
        }
    }

    #[test]
    fn a_perturbed_answer_is_counted_as_failed() {
        let it = item(Kind::Search, 3);
        let first =
            r#"{"id":3,"ok":true,"kind":"search","cached":true,"latency":{"cc_total":1000.0}}"#;
        let expected: Expected = [(3, first.to_string())].into_iter().collect();
        assert!(check(&it, 3, first, Some(&expected)));
        // One digit of the result changed.
        let perturbed = first.replace("1000.0", "1000.5");
        assert!(!check(&it, 3, &perturbed, Some(&expected)));
        // An error answer.
        let error = r#"{"id":3,"ok":false,"error":"boom","code":"request/invalid"}"#;
        assert!(!check(&it, 3, error, None));
        // An answer to another request.
        assert!(!check(&it, 3, &first.replace("\"id\":3", "\"id\":4"), None));
    }

    #[test]
    fn slot_reuse_alone_is_not_a_difference() {
        let it = item(Kind::Surrogate, 1);
        let a = r#"{"id":1,"ok":true,"specialized_reused":false,"latency":{"cc_total":5.0}}"#;
        let expected: Expected = [(1, a.to_string())].into_iter().collect();
        assert!(check(
            &it,
            1,
            &a.replace(":false", ":true"),
            Some(&expected)
        ));
    }

    #[test]
    fn a_perturbed_miss_fails_verification() {
        let it = item(Kind::Search, 0);
        let service = EvalService::new(ServeOptions {
            include_timing: false,
            ..ServeOptions::default()
        });
        let answer = service.handle_line(&it.line).expect("one answer");
        assert!(verify(&it, &answer));
        let v: Value = serde_json::from_str(&answer).unwrap();
        let cc = v
            .get("latency")
            .and_then(|l| l.get("cc_total"))
            .unwrap()
            .as_f64()
            .unwrap();
        let perturbed = answer.replace(
            &format!(
                "\"cc_total\":{}",
                serde_json::to_string(&Value::F64(cc)).unwrap()
            ),
            &format!("\"cc_total\":{}", cc + 1.0),
        );
        assert_ne!(perturbed, answer);
        assert!(!verify(&it, &perturbed));
    }

    #[test]
    fn generators_are_deterministic_and_cold_requests_distinct() {
        let a = cold_workload(5, 300, 2).unwrap();
        let b = cold_workload(5, 300, 2).unwrap();
        assert_eq!(a.streams, b.streams);
        assert!(a.items.iter().zip(&b.items).all(|(x, y)| x.line == y.line));
        let bodies: BTreeSet<String> = a
            .items
            .iter()
            .map(|i| i.line.split_once(',').unwrap().1.to_string())
            .collect();
        assert_eq!(bodies.len(), a.items.len());
        let c = cold_workload(6, 300, 2).unwrap();
        assert!(a.items.iter().zip(&c.items).any(|(x, y)| x.line != y.line));

        let h = hot_workload(5, 1000, 2).unwrap();
        assert_eq!(h.streams.iter().map(Vec::len).sum::<usize>(), 1000);
        // Every surrogate request is on the first connection.
        assert!(h.streams[1]
            .iter()
            .all(|&i| h.items[i].spec.kind != Kind::Surrogate));
    }
}
