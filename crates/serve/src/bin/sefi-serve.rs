//! Self-contained guarded inference server.
//!
//! Mints a checkpoint (plus ECC sidecar) for the requested model, writes
//! one file copy per replica — optionally flipping an exponent MSB in one
//! copy to stage the corruption drill — calibrates activation envelopes
//! from the verified-clean bytes over the loadgen corpus, and serves.
//!
//! ```text
//! sefi-serve --dir /tmp/d --requests 200 --port-file /tmp/d/port \
//!     [--fw chainer] [--model alexnet] [--dtype f32] [--workers 2]
//!     [--replicas 2] [--max-batch 8] [--window-ms 2] [--slack 0.5]
//!     [--input-size 16] [--scale 0.05] [--corpus 64] [--data-seed 7]
//!     [--corrupt-replica 1] [--telemetry events.jsonl] [--port 0]
//! ```

use sefi_frameworks::save_checkpoint;
use sefi_hdf5::{Dtype, EccSidecar};
use sefi_models::{build, ModelConfig};
use sefi_rng::DetRng;
use sefi_serve::cli::{parse_dtype, parse_fw, parse_model};
use sefi_serve::{
    calibrate_from_clean_bytes, corpus_images, flip_exponent_msb, run_server, EngineConfig,
    ReplicaSpec, ServeEngine, ServerConfig,
};
use sefi_telemetry::JsonlSink;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        eprintln!("sefi-serve: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut fw = "chainer".to_string();
    let mut model = "alexnet".to_string();
    let mut dtype = "f32".to_string();
    let mut workers = 2usize;
    let mut replicas = 2usize;
    let mut max_batch = 8usize;
    let mut window_ms = 2u64;
    let mut slack = 0.5f32;
    let mut input_size = 16usize;
    let mut scale = 0.05f64;
    let mut corpus = 64usize;
    let mut data_seed = 7u64;
    let mut requests: Option<u64> = None;
    let mut port = 0u16;
    let mut port_file: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut corrupt_replica: Option<usize> = None;
    let mut dir: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--fw" => fw = val(&mut i)?,
            "--model" => model = val(&mut i)?,
            "--dtype" => dtype = val(&mut i)?,
            "--workers" => workers = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--replicas" => replicas = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--max-batch" => max_batch = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--window-ms" => window_ms = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--slack" => slack = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--input-size" => input_size = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--scale" => scale = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--corpus" => corpus = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--data-seed" => data_seed = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--requests" => requests = Some(val(&mut i)?.parse().map_err(|e| format!("{e}"))?),
            "--port" => port = val(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--port-file" => port_file = Some(val(&mut i)?.into()),
            "--telemetry" => telemetry = Some(val(&mut i)?.into()),
            "--corrupt-replica" => {
                corrupt_replica = Some(val(&mut i)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--dir" => dir = Some(val(&mut i)?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let dir = dir.ok_or("--dir is required")?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;

    let cfg = EngineConfig {
        fw: parse_fw(&fw)?,
        model: parse_model(&model)?,
        model_config: ModelConfig { scale, input_size, num_classes: 10 },
        dtype: parse_dtype(&dtype)?,
        max_batch,
        batch_window: Duration::from_millis(window_ms),
        guard_slack: slack,
    };
    assert!(
        cfg.dtype == Dtype::F32 || corrupt_replica.is_none(),
        "--corrupt-replica targets f32 element layout"
    );

    // Mint the checkpoint this server serves.
    let (mut net, _) = build(cfg.model, cfg.model_config, &mut DetRng::new(0xC0DE_5EED));
    let first_param = net.params_mut()[0].name.to_string();
    let file = save_checkpoint(cfg.fw, &mut net, 1, cfg.dtype);
    let clean_bytes = file.to_bytes_v2();
    let sidecar = EccSidecar::protect(&clean_bytes).map_err(|e| format!("sidecar: {e}"))?;

    let mut specs = Vec::with_capacity(replicas);
    for r in 0..replicas {
        let path = dir.join(format!("replica_{r}.h5"));
        let mut bytes = clean_bytes.clone();
        if corrupt_replica == Some(r) {
            let target = sefi_frameworks::engine_to_file_path(cfg.fw, &first_param);
            let elem = flip_exponent_msb(&mut bytes, &target)?;
            eprintln!("sefi-serve: flipped exponent MSB of {target}[{elem}] in replica {r}");
        }
        std::fs::write(&path, &bytes).map_err(|e| format!("writing {path:?}: {e}"))?;
        specs.push(ReplicaSpec { path, sidecar: Some(sidecar.clone()) });
    }

    // Calibrate on the loadgen corpus (same DataConfig contract).
    let images = corpus_images(corpus, input_size, data_seed);
    let batches: Vec<_> = images
        .chunks(max_batch)
        .map(|chunk| {
            let mut data = Vec::with_capacity(chunk.len() * 3 * input_size * input_size);
            for img in chunk {
                data.extend_from_slice(img);
            }
            sefi_tensor::Tensor::from_vec(data, &[chunk.len(), 3, input_size, input_size])
        })
        .collect();
    let env = Arc::new(calibrate_from_clean_bytes(&cfg, &clean_bytes, &batches)?);
    let canary = batches[0].clone();

    let sink = match &telemetry {
        Some(p) => {
            Some(Arc::new(JsonlSink::to_file(p).map_err(|e| format!("telemetry {p:?}: {e}"))?))
        }
        None => None,
    };
    let engine =
        Arc::new(ServeEngine::new(cfg, &specs, env, canary, sink, "sefi-serve".to_string())?);
    let totals = run_server(
        Arc::clone(&engine),
        &ServerConfig { workers, port, port_file, request_limit: requests },
    )?;
    println!(
        "sefi-serve: requests={} batches={} guard_trips={} reloads={} reserved={}",
        totals.requests, totals.batches, totals.guard_trips, totals.reloads, totals.reserved
    );
    Ok(())
}
