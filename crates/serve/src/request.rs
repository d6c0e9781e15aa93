//! Query-string → [`Experiment`] decoding for the `/v1/cell` route.
//!
//! The wire format is a plain `k=v&k=v` query string (percent-encoding
//! honoured) — no JSON parser enters the request path. The keys are the
//! CLI's cell flags spelled with `_` (`power_cap` for `--power-cap`), plus
//! the request's own `timeout_ms`. The sku,
//! model, strategy, precision and datapath values go through the same
//! `FromStr` parsers as the CLI's. Two things differ from the CLI: the
//! default model is gpt3-xl (the CLI's is gpt3-2.7b), and `microbatch=`
//! applies only with `strategy=pp` (`--microbatch` forces a pipeline).
//!
//! ```text
//! /v1/cell?sku=h100&gpus=4&model=gpt3-xl&strategy=fsdp&batch=8&seq=256
//! ```
//!
//! Unknown keys are rejected (a typo must not silently select the
//! default cell), and every value error names the offending key.

use olab_core::{Experiment, Strategy};
use olab_gpu::SkuKind;
use olab_models::ModelPreset;

/// One decoded cell request: the experiment plus the caller's own
/// deadline, which the server propagates into the execution guard.
#[derive(Debug, Clone)]
pub struct CellRequest {
    /// The cell to simulate (or serve from cache).
    pub experiment: Experiment,
    /// The request's deadline budget, milliseconds. `None` = no deadline
    /// beyond the server's own per-cell guard.
    pub timeout_ms: Option<u64>,
}

/// Decodes `%XX` escapes and `+`-as-space in one query component.
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent escape in '{s}'"))?;
                out.push(hex);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("query component '{s}' is not UTF-8"))
}

fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{key}: cannot parse '{value}'"))
}

/// Decodes a `/v1/cell` query string into a [`CellRequest`].
///
/// Missing parameters default to `sku=h100`, `gpus=4`, `model=gpt3-xl`,
/// `strategy=fsdp`, `batch=8`, and the rest to [`Experiment::new`]'s
/// values. That is the CLI's cell except for the model (the CLI defaults
/// to gpt3-2.7b). `microbatch=` sets the pipeline's microbatch size and
/// is ignored under any other strategy, where the CLI's `--microbatch`
/// switches the strategy to pipeline.
///
/// # Errors
///
/// A human-readable message naming the offending key, for the `400`
/// response body.
pub fn parse_query(query: &str) -> Result<CellRequest, String> {
    let mut sku = SkuKind::H100;
    let mut gpus = 4usize;
    let mut model = ModelPreset::Gpt3Xl;
    let mut strategy = Strategy::Fsdp;
    let mut batch = 8u64;
    let mut seq = None;
    let mut microbatch = None;
    let mut precision = None;
    let mut datapath = None;
    let mut power_cap = None;
    let mut freq_cap = None;
    let mut grad_accum = None;
    let mut timeout_ms = None;

    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (raw_key, raw_value) = pair
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{pair}'"))?;
        let key = percent_decode(raw_key)?;
        let value = percent_decode(raw_value)?;
        match key.as_str() {
            "sku" => sku = value.parse()?,
            "gpus" => gpus = num(&key, &value)?,
            "model" => model = value.parse()?,
            "strategy" => strategy = value.parse()?,
            "batch" => batch = num(&key, &value)?,
            "seq" => seq = Some(num(&key, &value)?),
            "microbatch" => microbatch = Some(num(&key, &value)?),
            "precision" => precision = Some(value.parse()?),
            "datapath" => datapath = Some(value.parse()?),
            "power_cap" => power_cap = Some(num::<f64>(&key, &value)?),
            "freq_cap" => freq_cap = Some(num::<f64>(&key, &value)?),
            "grad_accum" => grad_accum = Some(num(&key, &value)?),
            "timeout_ms" => timeout_ms = Some(num(&key, &value)?),
            other => return Err(format!("unknown parameter '{other}'")),
        }
    }

    if let (Strategy::Pipeline { microbatch_size }, Some(mb)) = (&mut strategy, microbatch) {
        *microbatch_size = mb;
    }
    let mut experiment = Experiment::new(sku, gpus, model, strategy, batch);
    if let Some(seq) = seq {
        experiment = experiment.with_seq(seq);
    }
    if let Some(precision) = precision {
        experiment = experiment.with_precision(precision);
    }
    if let Some(datapath) = datapath {
        experiment = experiment.with_datapath(datapath);
    }
    if let Some(watts) = power_cap {
        experiment = experiment.with_power_cap(watts);
    }
    if let Some(factor) = freq_cap {
        experiment = experiment.with_freq_cap(factor);
    }
    if let Some(steps) = grad_accum {
        experiment = experiment.with_grad_accum(steps);
    }
    Ok(CellRequest {
        experiment,
        timeout_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use olab_core::sweep::cell_key;
    use olab_gpu::{Datapath, Precision};

    #[test]
    fn an_empty_query_is_the_default_cell() {
        let req = parse_query("").unwrap();
        assert_eq!(req.experiment.sku, SkuKind::H100);
        assert_eq!(req.experiment.n_gpus, 4);
        assert_eq!(req.experiment.model, ModelPreset::Gpt3Xl);
        assert_eq!(req.experiment.strategy, Strategy::Fsdp);
        assert_eq!(req.experiment.batch, 8);
        assert_eq!(req.timeout_ms, None);
    }

    #[test]
    fn a_full_query_round_trips_every_field() {
        let req = parse_query(
            "sku=mi250&gpus=8&model=gpt3-2.7b&strategy=pp&microbatch=4&batch=16&seq=512\
             &precision=bf16&datapath=vector&power_cap=350&freq_cap=0.8&grad_accum=2\
             &timeout_ms=2500",
        )
        .unwrap();
        let e = &req.experiment;
        assert_eq!(e.sku, SkuKind::Mi250);
        assert_eq!(e.n_gpus, 8);
        assert_eq!(e.strategy, Strategy::Pipeline { microbatch_size: 4 });
        assert_eq!(e.batch, 16);
        assert_eq!(e.seq, 512);
        assert_eq!(e.precision, Precision::Bf16);
        assert_eq!(e.datapath, Datapath::Vector);
        assert_eq!(e.power_cap_w, Some(350.0));
        assert_eq!(e.freq_cap, Some(0.8));
        assert_eq!(e.grad_accum_steps, 2);
        assert_eq!(req.timeout_ms, Some(2500));
    }

    #[test]
    fn identical_queries_address_the_same_cell_key() {
        let a = parse_query("sku=a100&batch=8&seq=256").unwrap();
        let b = parse_query("seq=256&batch=8&sku=a100").unwrap();
        assert_eq!(cell_key(&a.experiment), cell_key(&b.experiment));
    }

    #[test]
    fn percent_escapes_and_plus_decode() {
        assert_eq!(percent_decode("gpt3%2Dxl").unwrap(), "gpt3-xl");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert!(percent_decode("%zz").is_err());
        let req = parse_query("model=gpt3%2Dxl").unwrap();
        assert_eq!(req.experiment.model, ModelPreset::Gpt3Xl);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected_by_name() {
        let err = parse_query("skew=h100").unwrap_err();
        assert!(err.contains("skew"), "{err}");
        let err = parse_query("gpus=many").unwrap_err();
        assert!(err.contains("gpus"), "{err}");
        let err = parse_query("sku").unwrap_err();
        assert!(err.contains("key=value"), "{err}");
    }
}
