//! Mixture-of-Experts all-to-all overlap (the Tutel/Lancet optimization
//! from the paper's related work): compares un-chunked dispatch against
//! 2- and 4-way chunking, where chunk c+1's all-to-all hides under chunk
//! c's expert compute.
//!
//! ```sh
//! cargo run --release -p olab-core --example moe_overlap
//! ```

use olab_core::{execute, Machine, RunTotals};
use olab_gpu::{Datapath, GpuSku, Precision};
use olab_models::ModelPreset;
use olab_parallel::{moe, ExecutionMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sku = GpuSku::mi250();
    let machine = Machine::stock(sku.clone(), 4);
    let topo = machine.config().topology.clone();

    println!(
        "MoE GPT-3 XL (8 experts, every 2nd layer) on 4x{}\n",
        sku.name
    );
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>12}",
        "chunks", "E2E (ms)", "a2a total (ms)", "a2a hidden", "vs chunks=1"
    );

    let mut baseline = None;
    for chunks in [1u32, 2, 4, 8] {
        let plan = moe::MoePlan {
            model: ModelPreset::Gpt3Xl.config(),
            ranks: 4,
            batch_per_rank: 8,
            seq: 1024,
            experts: 8,
            moe_every: 2,
            chunks,
            precision: Precision::Fp16,
            datapath: Datapath::TensorCore,
        };
        let w = moe::moe_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped);
        let run = execute(&w, &machine)?;
        let e2e = run.e2e_s;
        let comm = run.comm_s() / 4.0;
        let hidden = if comm > 0.0 {
            run.hidden_comm_s() / 4.0 / comm
        } else {
            0.0
        };
        let gain = baseline
            .map(|b: f64| format!("{:+.1}%", (b / e2e - 1.0) * 100.0))
            .unwrap_or_else(|| "baseline".into());
        if baseline.is_none() {
            baseline = Some(e2e);
        }
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>13.1}% {:>12}",
            chunks,
            e2e * 1e3,
            comm * 1e3,
            hidden * 100.0,
            gain
        );
    }

    println!(
        "\nChunking turns exposed all-to-alls into hidden ones — the Tutel\n\
         optimization — at the cost of smaller, less efficient transfers."
    );
    Ok(())
}
