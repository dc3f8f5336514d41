//! The ingest path: SNAP text on disk to a validated `.pcsr` read back.
//!
//! The untraced pass runs the user's default `parcsr compress` through
//! `parcsr_cli::run`. The traced pass makes the same calls the command makes,
//! one public function at a time, so each layer is timed from outside.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use parcsr::{BitPackedCsr, CsrBuilder, PackedCsrMode};
use parcsr_graph::{io as gio, NodeId};

use crate::workload::Inputs;

/// Worker count of every ingest; no workload uses more than two threads.
pub const PROCS: usize = 2;

/// `BitPackedCsr::read_from` on the file at `path`.
pub fn open(path: &Path) -> Result<BitPackedCsr, String> {
    let file = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    BitPackedCsr::read_from(&mut BufReader::new(file)).map_err(|e| e.to_string())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// Checks a read-back against the oracle, outside any timed region. This is
/// `packed.unpack() == oracle` decided row by row, without building the
/// unpacked copy.
pub fn validate(
    inputs: &Inputs,
    packed: Result<BitPackedCsr, String>,
) -> Result<BitPackedCsr, String> {
    let packed = packed?;
    let oracle = &inputs.oracle;
    let same = guarded(|| {
        Ok(packed.num_nodes() == oracle.num_nodes()
            && packed.num_edges() == oracle.num_edges()
            && (0..oracle.num_nodes() as NodeId)
                .all(|u| packed.row_iter(u).eq(oracle.neighbors(u).iter().copied())))
    });
    match same {
        Ok(true) => Ok(packed),
        Ok(false) => Err("read-back differs from the oracle".into()),
        Err(e) => Err(e),
    }
}

/// `parcsr compress INPUT --out OUT --procs 2`, then `read_from`. Returns the
/// wall seconds and the validated read-back.
pub fn ingest_cli(inputs: &Inputs) -> (f64, Result<BitPackedCsr, String>) {
    let args = [
        "compress".to_string(),
        inputs.text.display().to_string(),
        "--out".into(),
        inputs.pcsr.display().to_string(),
        "--procs".into(),
        PROCS.to_string(),
    ];
    let t = Instant::now();
    let packed = guarded(|| {
        parcsr_cli::run(args)?;
        open(&inputs.pcsr)
    });
    let secs = t.elapsed().as_secs_f64();
    (secs, validate(inputs, packed))
}

/// Seconds per layer of one traced ingest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub parse: f64,
    pub sort: f64,
    pub degree: f64,
    pub scan: f64,
    pub fill: f64,
    pub pack: f64,
    pub write: f64,
    pub read: f64,
    /// The whole traced ingest, the layers included.
    pub wall: f64,
}

impl Layers {
    pub fn attributed(&self) -> f64 {
        self.parse
            + self.sort
            + self.degree
            + self.scan
            + self.fill
            + self.pack
            + self.write
            + self.read
    }
}

/// The compress command's steps as separate calls. `mode` is the column
/// mode of the file the command itself wrote, so the traced pass packs what
/// the user's default packs without naming it.
pub fn ingest_traced(
    inputs: &Inputs,
    mode: PackedCsrMode,
) -> (Layers, Result<BitPackedCsr, String>) {
    let mut l = Layers::default();
    let lap = |t: &mut Instant| {
        let now = Instant::now();
        let secs = (now - *t).as_secs_f64();
        *t = now;
        secs
    };
    let start = Instant::now();
    let packed = guarded(|| {
        let mut t = Instant::now();
        let graph = gio::read_edge_list_file(&inputs.text).map_err(|e| e.to_string())?;
        l.parse = lap(&mut t);
        let sorted = graph.sorted_by_source();
        l.sort = lap(&mut t);
        // Degree (Alg. 2-3), scan (Alg. 1) and fill as the builder times
        // them inside the one call; the call's remainder is unattributed.
        let (csr, timings) = CsrBuilder::new()
            .processors(PROCS)
            .build_from_sorted(&sorted);
        lap(&mut t);
        (l.degree, l.scan, l.fill) = (
            timings.degree_ms / 1e3,
            timings.scan_ms / 1e3,
            timings.fill_ms / 1e3,
        );
        let packed = BitPackedCsr::from_csr(&csr, mode, PROCS);
        l.pack = lap(&mut t);
        let file = File::create(&inputs.pcsr).map_err(|e| e.to_string())?;
        let mut w = BufWriter::new(file);
        packed.write_to(&mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        drop(w);
        l.write = lap(&mut t);
        drop((graph, sorted, csr, packed));
        lap(&mut t);
        let back = open(&inputs.pcsr);
        l.read = lap(&mut t);
        back
    });
    l.wall = start.elapsed().as_secs_f64();
    (l, validate(inputs, packed))
}
