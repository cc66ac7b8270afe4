//! The benchmark harness: one run of one workload against `pexeso serve`
//! / `pexeso router` daemons. Prints every metric with its unit and
//! sample count, then one JSON line with the full result. Exits non-zero
//! when any answer was wrong. `perfbench/run.py` builds and drives it.

mod bench;
mod check;
mod deploy;
mod ladder;
mod load;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Args, Metric, Workload};
use util::Json;

const USAGE: &str = "perfbench --workload open_threshold|wdc_routed_topk|wdc_ingest --seed <n> \
--seconds <s> --trace 0|1 --pexeso <path to the pexeso binary> --work <scratch dir> --out <results dir>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        get.insert(key.to_string(), value.clone());
    }
    let need = |k: &str| {
        get.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = need("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: need("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: need("seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace: match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace '{other}' (0 or 1)")),
        },
        bin: PathBuf::from(need("pexeso")?),
        work: PathBuf::from(need("work")?),
        out: PathBuf::from(need("out")?),
    })
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(ms.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::Int(m.samples as i64)),
            ]),
        )
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) =
        std::fs::create_dir_all(&args.work).and_then(|_| std::fs::create_dir_all(&args.out))
    {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let report = match bench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in shown {
        println!(
            "{:<36} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = report.wrong == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("wrong", Json::Int(report.wrong as i64)),
        ("end_to_end", metrics_json(&report.end_to_end)),
        ("per_layer", metrics_json(&report.per_layer)),
        ("notes", Json::Obj(report.notes.clone())),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} wrong answers", report.wrong);
        ExitCode::from(1)
    }
}
