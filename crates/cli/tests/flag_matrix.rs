//! Every subcommand crossed with every flag of the flag table, each flag
//! with one valid value, against a checked-in golden file of outcomes:
//! `ok`, or the exact error text.

use olab_cli::args::{Sub, FLAGS};

/// One valid value per flag that takes one. A new table row fails here
/// until it gets a sample and its golden lines.
fn sample(flag: &str) -> &'static str {
    match flag {
        "--sku" => "h100",
        "--gpus" => "4",
        "--model" => "gpt3-xl",
        "--strategy" => "fsdp",
        "--microbatch" => "4",
        "--batch" => "8",
        "--seq" => "256",
        "--precision" => "bf16",
        "--datapath" => "vector",
        "--power-cap" => "300",
        "--freq-cap" => "0.8",
        "--grad-accum" => "2",
        "--jobs" => "2",
        "--cache" => "/tmp/olab-matrix",
        "--cache-max-bytes" => "4096",
        "--cell-timeout-s" => "2.5",
        "--metrics" => "/tmp/olab-metrics",
        "--batches" => "8,16",
        "--out-dir" => "/tmp/olab-out",
        "--sample-ms" => "50",
        "--interval-ms" => "5",
        "--objective" => "energy",
        "--seed" => "3",
        "--seeds" => "3,5",
        "--severity" => "severe",
        "--action" => "abort",
        "--recovery" => "elastic",
        "--ckpt-interval-s" => "5",
        "--cell" => "fig7",
        "--fault-seed" => "2",
        "--addr" => "127.0.0.1:0",
        "--max-queue" => "8",
        "--http-workers" => "2",
        "--drain-timeout-s" => "1",
        "--log" => "/tmp/olab-serve.jsonl",
        "--oneshot" => "seq=128",
        other => panic!("no sample value for {other}"),
    }
}

#[test]
fn every_subcommand_and_flag_matches_the_golden_outcome() {
    let subs = std::iter::once("help").chain(Sub::ALL.iter().map(|s| s.name()));
    let mut actual = String::new();
    for sub in subs {
        for flag in FLAGS {
            let mut argv = vec![sub.to_string(), flag.name.to_string()];
            if flag.takes_value {
                argv.push(sample(flag.name).to_string());
            }
            let outcome = match olab_cli::parse(&argv) {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("error: {e}"),
            };
            actual.push_str(&format!("{} => {outcome}\n", argv.join(" ")));
        }
    }
    let golden = include_str!("flag_matrix.golden");
    for (line, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "the matrix and the golden file differ in length"
    );
}
