//! Runs every workload at the smoke size: untraced and traced, the oracle,
//! the replay fidelity check, and exact repetition of the work counters.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["publish_path_join", "durable_churn", "subscribe_churn"];

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the benchmark and returns its standard output.
fn run(workload: &str, seed: u64, trace: bool, out: &PathBuf) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_mdvbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "smoke", "--out"])
        .arg(out)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{workload} seed {seed}: {last}\n{stdout}"
    );
    stdout
}

fn counters(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("counters after the first"))
        .expect("counter line")
        .to_owned()
}

#[test]
fn every_workload_passes_the_oracle_and_repeats_its_counters() {
    for w in WORKLOADS {
        let out = out_dir(&format!("untraced-{w}"));
        let first = run(w, 7, false, &out);
        let second = run(w, 7, false, &out);
        assert_eq!(
            counters(&first),
            counters(&second),
            "{w}: same seed, different work"
        );
        let other = run(w, 8, false, &out);
        assert_ne!(
            counters(&first),
            counters(&other),
            "{w}: the seed changes nothing"
        );
        assert!(first.contains("oracle: 4 LMR caches"), "{first}");
    }
}

#[test]
fn traced_runs_cover_six_layers_and_replay_faithfully() {
    for w in WORKLOADS {
        let out = out_dir(&format!("traced-{w}"));
        let stdout = run(w, 3, true, &out);
        assert!(
            stdout.contains("replay fidelity: filter counters equal"),
            "{stdout}"
        );
        let spans = std::fs::read_to_string(out.join(format!("trace-{w}-seed3.jsonl"))).unwrap();
        // only durable nodes have a log to checkpoint
        let durable = w == "durable_churn";
        for layer in ["rdf", "rulelang", "filter", "relstore", "system", "lmr"] {
            let tag = format!("\"layer\":\"{layer}\"");
            assert_eq!(
                spans.contains(&tag),
                layer != "relstore" || durable,
                "{w}: {layer} spans"
            );
        }
    }
}
