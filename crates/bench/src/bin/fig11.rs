//! Regenerate Figure 11 (extension): buffer sensitivity of Q01–Q12 on
//! the temporal database with 100 % loading at UC 14, as the
//! frames-per-relation cap grows 1→8. The paper's 1-buffer methodology
//! is the leftmost column of a measured curve. `--threads N` measures
//! the frame caps in parallel, one database copy per worker; the
//! numbers match the serial sweep exactly.
use tdbms_bench::{
    figures, max_uc_from_env, run_buffer_sweep_threaded, threads_from_args,
    BenchConfig,
};
use tdbms_kernel::DatabaseClass;

fn main() {
    let uc = max_uc_from_env(14);
    let threads = threads_from_args();
    let mut frames: Vec<usize> = (1..=8).collect();
    // The benefit cliff sits at the overflow-chain length (1 + 2n pages
    // per bucket at update count n): a keyed probe walks its whole chain,
    // so LRU reuses nothing until the chain fits. Measure one cap at that
    // knee so the full-scale figure shows it (at small UC it already
    // falls inside 1..=8).
    let chain = 2 * uc as usize + 1;
    if chain > 8 {
        frames.push(chain);
    }
    let data = run_buffer_sweep_threaded(
        BenchConfig::new(DatabaseClass::Temporal, 100),
        uc,
        &frames,
        threads,
    );
    print!("{}", figures::fig11(&data));
}
