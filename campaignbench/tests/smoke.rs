//! Every workload once at a tiny scale, untraced and traced: the output
//! check passes, and the traced replay reproduces the untraced report
//! digest byte for byte.

use campaignbench::{run, Args, Scale, Workload};
use std::path::Path;

#[test]
fn every_workload_passes_its_output_check_traced_and_untraced() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("smoke");
    for workload in Workload::ALL {
        let mut digests = Vec::new();
        for trace in [false, true] {
            let args = Args { workload, seed: 3, seconds: 0.0, trace, scale: Scale::Tiny };
            let outcome = run(&args, &out)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            assert!(
                outcome.correct(),
                "{} (trace {trace}): {} of {} operations failed",
                workload.name(),
                outcome.failed,
                outcome.attempted
            );
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            digests.push(outcome.digest);
        }
        assert_eq!(digests[0], digests[1], "{}: traced digest differs", workload.name());
    }
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args = parse("--workload served_mixed --seed 7 --seconds 20 --trace 1").expect("valid");
    assert_eq!((args.workload, args.seed, args.trace), (Workload::ServedMixed, 7, true));
    assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload paper_mine --seed 1 --seconds 1 --trace 2").is_err());
    assert!(parse("--workload paper_mine --seed 1 --trace 0").is_err());
}
