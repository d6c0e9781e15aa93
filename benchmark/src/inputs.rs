//! Seeded input generation. Everything a workload feeds the program comes
//! from here and from nothing else, so one seed always yields the same
//! inputs and the program sees only the generated cells and queries.

use olab_core::Experiment;
use olab_gpu::SkuKind;
use olab_models::ModelPreset;

/// SplitMix64: small, fast and independent of the program's own PRNG, so
/// a change to the program cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per workload by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.rotate_left(17))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Salt of the `grid_cold` input stream.
pub const GRID_SALT: u64 = 0x6772_6964;
/// Salt of the `jitter_repeats` input stream.
pub const JITTER_SALT: u64 = 0x6a69_7474;
/// Salt of the `serve_whatif` input stream.
pub const SERVE_SALT: u64 = 0x7365_7276;

/// Measurement noise of the jittered runs (the paper's repeated-runs
/// methodology uses a few percent).
pub const JITTER_SIGMA: f64 = 0.05;

/// One round of `jitter_repeats`: every feasible cell once, in a seeded
/// order, each with a seeded jitter seed. Rounds are the same work in a
/// different order, so every round costs about the same.
pub fn jitter_round(rng: &mut Rng, feasible: &[usize]) -> Vec<(usize, u64)> {
    rng.permutation(feasible.len())
        .into_iter()
        .map(|i| (feasible[i], rng.next_u64()))
        .collect()
}

/// The what-if space the `serve_whatif` clients query: sku × model ×
/// strategy × batch × seq × precision × power cap.
const SKUS: [&str; 4] = ["a100", "h100", "mi210", "mi250"];
const MODELS: [&str; 2] = ["gpt3-xl", "gpt3-2.7b"];
const STRATEGIES: [&str; 3] = ["fsdp", "pp", "tp"];
const BATCHES: [u64; 2] = [8, 16];
const SEQS: [u64; 2] = [256, 512];
const PRECISIONS: [&str; 2] = ["fp16", "bf16"];
const POWER_CAPS: [Option<u32>; 2] = [None, Some(250)];

/// Repeats of earlier queries after each fresh one: three quarters of the
/// requests hit the server's cache.
pub const HITS_PER_MISS: usize = 3;

/// Every query string of the what-if space, in a fixed order.
pub fn serve_universe() -> Vec<String> {
    let mut out = Vec::new();
    for sku in SKUS {
        for model in MODELS {
            for strategy in STRATEGIES {
                for batch in BATCHES {
                    for seq in SEQS {
                        for precision in PRECISIONS {
                            for cap in POWER_CAPS {
                                let mut q = format!(
                                    "sku={sku}&model={model}&strategy={strategy}\
                                     &batch={batch}&seq={seq}&precision={precision}"
                                );
                                if let Some(w) = cap {
                                    q.push_str(&format!("&power_cap={w}"));
                                }
                                out.push(q);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// The query stream of one `serve_whatif` round, as indices into the
/// universe: every cell of the universe once as a fresh query (a miss) in
/// a seeded order, each followed by [`HITS_PER_MISS`] seeded repeats of
/// queries already sent (hits). Every seed sends the same fresh cells, so
/// rounds of different seeds cost about the same.
pub fn query_stream(rng: &mut Rng, universe: usize) -> Vec<usize> {
    let order = rng.permutation(universe);
    let mut stream = Vec::with_capacity(universe * (1 + HITS_PER_MISS));
    for (sent, &fresh) in order.iter().enumerate() {
        stream.push(fresh);
        for _ in 0..HITS_PER_MISS {
            stream.push(order[rng.below(sent + 1)]);
        }
    }
    stream
}

/// The `/v1/cell` query naming a main-grid-style experiment, so the serve
/// layer can be probed with any workload's own cells.
pub fn query_of(e: &Experiment) -> String {
    let sku = match e.sku {
        SkuKind::A100 => "a100",
        SkuKind::H100 => "h100",
        SkuKind::Mi210 => "mi210",
        SkuKind::Mi250 => "mi250",
    };
    let model = match e.model {
        ModelPreset::Gpt3Xl => "gpt3-xl",
        ModelPreset::Gpt3_2_7B => "gpt3-2.7b",
        ModelPreset::Gpt3_6_7B => "gpt3-6.7b",
        ModelPreset::Gpt3_13B => "gpt3-13b",
        ModelPreset::Llama2_13B => "llama2-13b",
    };
    let strategy = match e.strategy {
        olab_core::Strategy::Fsdp => "fsdp".to_string(),
        olab_core::Strategy::Pipeline { microbatch_size } => {
            format!("pp&microbatch={microbatch_size}")
        }
        olab_core::Strategy::TensorParallel => "tp".to_string(),
    };
    format!(
        "sku={sku}&gpus={}&model={model}&strategy={strategy}&batch={}&seq={}",
        e.n_gpus, e.batch, e.seq
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::registry;

    fn grid_orders(seed: u64) -> Vec<Vec<usize>> {
        let mut rng = Rng::new(seed, GRID_SALT);
        (0..3).map(|_| rng.permutation(160)).collect()
    }

    fn jitter_rounds(seed: u64) -> Vec<Vec<(usize, u64)>> {
        let feasible: Vec<usize> = (0..107).map(|i| i + 7).collect();
        let mut rng = Rng::new(seed, JITTER_SALT);
        (0..2).map(|_| jitter_round(&mut rng, &feasible)).collect()
    }

    fn stream(seed: u64) -> Vec<usize> {
        query_stream(&mut Rng::new(seed, SERVE_SALT), serve_universe().len())
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(grid_orders(7), grid_orders(7));
        assert_eq!(jitter_rounds(7), jitter_rounds(7));
        assert_eq!(stream(7), stream(7));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(grid_orders(7), grid_orders(8));
        assert_ne!(jitter_rounds(7), jitter_rounds(8));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn grid_orders_are_permutations_that_change_between_passes() {
        let orders = grid_orders(1);
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..160).collect::<Vec<_>>());
        }
        assert_ne!(orders[0], orders[1]);
    }

    #[test]
    fn every_query_stream_sends_the_whole_universe_once_fresh() {
        let n = serve_universe().len();
        let s = stream(3);
        assert_eq!(s.len(), n * (1 + HITS_PER_MISS));
        let mut seen = vec![false; n];
        let mut fresh = 0;
        for &q in &s {
            if !seen[q] {
                seen[q] = true;
                fresh += 1;
            }
        }
        assert_eq!(fresh, n);
    }

    #[test]
    fn universe_queries_parse_and_are_distinct_cells() {
        let universe = serve_universe();
        let mut keys: Vec<u64> = universe
            .iter()
            .map(|q| {
                let cell = olab_serve::parse_query(q).expect("query parses");
                olab_core::sweep::cell_key(&cell.experiment)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), universe.len());
    }

    #[test]
    fn query_of_round_trips_every_main_grid_cell() {
        for e in registry::main_grid() {
            let parsed = olab_serve::parse_query(&query_of(&e)).expect("parses");
            assert_eq!(
                olab_core::sweep::cell_descriptor(&parsed.experiment),
                olab_core::sweep::cell_descriptor(&e)
            );
        }
    }
}
