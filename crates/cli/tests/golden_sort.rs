//! Golden CLI runs: FNV-1a-64 hashes of what `gas sort`, `gas profile`
//! and `gas chaos` print (and of the Chrome traces they write) on two
//! fixed batches. `tests/golden_service.rs` pins the scheduler the same
//! way; this file pins the commands that pick a sorter by name, so a
//! change to how they dispatch that is meant to be behaviour-neutral
//! cannot move a report, a stats field, a recovery record or a trace
//! span unseen. A deliberate change must update the table it moves and
//! say so in the change log.

use std::path::PathBuf;
use std::process::Command;

use support::json::{self, Value};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gas_golden_{name}"))
}

/// Runs `gas` and returns its stdout; any nonzero exit fails the test.
fn gas(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gas"))
        .args(args)
        .output()
        .expect("spawn gas binary");
    assert!(
        out.status.success(),
        "gas {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// A pinned batch: the `gas generate` arguments that write it.
struct Fixture {
    name: &'static str,
    num: &'static str,
    len: &'static str,
    dist: &'static str,
    seed: &'static str,
}

/// 64 × 500 uniform floats, seed 7.
const UNIFORM: Fixture = Fixture {
    name: "uniform",
    num: "64",
    len: "500",
    dist: "uniform",
    seed: "7",
};

/// 48 × 1000 `single-heavy` floats, seed 3: the skewed batch the
/// deterministic splitters and the adaptive bucket sort are meant for.
const HEAVY: Fixture = Fixture {
    name: "heavy",
    num: "48",
    len: "1000",
    dist: "single-heavy",
    seed: "3",
};

impl Fixture {
    /// Writes the batch under a name unique to `test` and returns its path.
    fn write(&self, test: &str) -> String {
        let path = tmp(&format!("{test}_{}.bin", self.name));
        let path = path.to_string_lossy().into_owned();
        gas(&[
            "generate",
            "--num-arrays",
            self.num,
            "--array-len",
            self.len,
            "--dist",
            self.dist,
            "--seed",
            self.seed,
            "--output",
            &path,
        ]);
        path
    }
}

/// Runs `gas` with `--trace FILE` appended and hashes stdout, then the
/// trace file.
fn hash_traced(args: &[&str], trace_name: &str) -> [u64; 2] {
    let trace = tmp(trace_name);
    let trace_arg = trace.to_string_lossy().into_owned();
    let mut full = args.to_vec();
    full.extend(["--trace", &trace_arg]);
    let stdout = gas(&full);
    let trace_bytes = std::fs::read(&trace).expect("trace file written");
    [fnv1a(stdout.as_bytes()), fnv1a(&trace_bytes)]
}

#[track_caller]
fn assert_table(name: &str, got: &[(String, u64)], want: &[(&str, u64)]) {
    let got_pairs: Vec<(&str, u64)> = got.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    if got_pairs != want {
        let mut table = String::new();
        for (k, h) in got {
            table.push_str(&format!("        ({k:?}, {h:#018x}),\n"));
        }
        panic!("{name}: hashes moved; got\n{table}");
    }
}

const SIX: [&str; 6] = ["gas", "gas-fused", "gas-warp", "sta", "segsort", "merge"];
const RECOVERING: [&str; 4] = ["gas", "gas-fused", "gas-warp", "sta"];

/// `gas sort --json --stats --trace` for all six algorithms on both
/// fixtures, the three GAS variants under deterministic splitters on the
/// skewed one, and `gas --adaptive`.
#[test]
fn sort_reports_and_traces_are_pinned() {
    let mut got = Vec::new();
    for fx in [&UNIFORM, &HEAVY] {
        let input = fx.write("sort");
        let base = ["sort", "--input", &input, "--array-len", fx.len];
        for alg in SIX {
            let mut args = base.to_vec();
            args.extend(["--algorithm", alg, "--json", "--stats", "--verify"]);
            let [out, trace] = hash_traced(&args, &format!("sort_{}_{alg}.json", fx.name));
            got.push((format!("{}/{alg}", fx.name), out));
            got.push((format!("{}/{alg}/trace", fx.name), trace));
        }
        if fx.name == HEAVY.name {
            for alg in &SIX[..3] {
                let mut args = base.to_vec();
                args.extend(["--algorithm", alg, "--splitters", "deterministic"]);
                args.extend(["--json", "--stats", "--verify"]);
                let [out, trace] = hash_traced(&args, &format!("sort_det_{alg}.json"));
                got.push((format!("heavy/{alg}/deterministic"), out));
                got.push((format!("heavy/{alg}/deterministic/trace"), trace));
            }
            let mut args = base.to_vec();
            args.extend(["--algorithm", "gas", "--adaptive", "--json", "--stats"]);
            let [out, trace] = hash_traced(&args, "sort_adaptive_gas.json");
            got.push(("heavy/gas/adaptive".into(), out));
            got.push(("heavy/gas/adaptive/trace".into(), trace));
        }
    }
    assert_table("sort", &got, SORT_HASHES);
}

/// The recovering path of every algorithm that has one, under a single
/// scripted launch failure and under a launch-failure storm that
/// exhausts the retries; JSON and text output both pinned.
#[test]
fn recovering_sort_reports_are_pinned() {
    let input = UNIFORM.write("faults");
    let specs: [(&str, &[&str]); 2] = [
        ("scripted", &["--faults", "seed=1,launch-at=0"]),
        (
            "storm",
            &["--faults", "seed=2,launch=1.0", "--retries", "2"],
        ),
    ];
    let mut got = Vec::new();
    for (spec_name, spec) in specs {
        for alg in RECOVERING {
            let mut args = vec!["sort", "--input", &input, "--array-len", UNIFORM.len];
            args.extend(["--algorithm", alg, "--verify"]);
            args.extend(spec);
            let text = gas(&args);
            args.extend(["--json", "--stats"]);
            let report = gas(&args);

            // Non-vacuity: the fault spec fired and recovery acted on it.
            let doc = json::parse(&report).expect("sort --json is JSON");
            let chunk = &doc["recovery"]["chunks"][0];
            let attempts = chunk["attempts"].as_u64().expect("attempts");
            let fallback = chunk["cpu_fallback"].as_bool().expect("cpu_fallback");
            match spec_name {
                "scripted" => assert_eq!((attempts, fallback), (2, false), "{alg}: one retry"),
                _ => assert_eq!((attempts, fallback), (2, true), "{alg}: one CPU fallback"),
            }

            got.push((format!("{spec_name}/{alg}/json"), fnv1a(report.as_bytes())));
            got.push((format!("{spec_name}/{alg}/text"), fnv1a(text.as_bytes())));
            // Same seed, same bytes.
            assert_eq!(gas(&args), report, "{spec_name}/{alg}: replay differs");
        }
    }
    assert_table("recovering sort", &got, RECOVERING_HASHES);
}

/// `gas profile --json` for the four variants; the `trace` field names a
/// temporary path, so it is dropped before hashing.
#[test]
fn profile_reports_and_traces_are_pinned() {
    let mut got = Vec::new();
    for alg in RECOVERING {
        let args = [
            "profile",
            "--num-arrays",
            UNIFORM.num,
            "--array-len",
            UNIFORM.len,
            "--seed",
            UNIFORM.seed,
            "--algorithm",
            alg,
            "--json",
        ];
        let trace = tmp(&format!("profile_{alg}.json"));
        let trace_arg = trace.to_string_lossy().into_owned();
        let mut full = args.to_vec();
        full.extend(["--trace", &trace_arg]);
        let mut doc = json::parse(&gas(&full)).expect("profile --json is JSON");
        let Value::Object(fields) = &mut doc else {
            panic!("profile --json is an object")
        };
        let before = fields.len();
        fields.retain(|(k, _)| k != "trace");
        assert_eq!(fields.len(), before - 1, "profile report names its trace");
        let trace_bytes = std::fs::read(&trace).expect("trace file written");
        got.push((
            format!("profile/{alg}"),
            fnv1a(json::to_string_pretty(&doc).as_bytes()),
        ));
        got.push((format!("profile/{alg}/trace"), fnv1a(&trace_bytes)));
    }
    assert_table("profile", &got, PROFILE_HASHES);
}

/// `gas chaos --json --seed 1` at a small shape for the three GAS
/// variants.
#[test]
fn chaos_reports_are_pinned() {
    let mut got = Vec::new();
    for alg in &SIX[..3] {
        let report = gas(&[
            "chaos",
            "--seed",
            "1",
            "--num-arrays",
            "48",
            "--array-len",
            "200",
            "--algorithm",
            alg,
            "--json",
        ]);
        got.push((format!("chaos/{alg}"), fnv1a(report.as_bytes())));
    }
    assert_table("chaos", &got, CHAOS_HASHES);
}

const SORT_HASHES: &[(&str, u64)] = &[
    ("uniform/gas", 0x9776_ad1d_27ce_3808),
    ("uniform/gas/trace", 0x6676_7b34_e136_94c5),
    ("uniform/gas-fused", 0x94e8_fdf7_da01_f082),
    ("uniform/gas-fused/trace", 0x0d4e_a7e1_8ea5_3498),
    ("uniform/gas-warp", 0xf06a_a968_ddfe_a596),
    ("uniform/gas-warp/trace", 0xc729_36a8_a43f_6e61),
    ("uniform/sta", 0x1244_73d4_bdf9_2338),
    ("uniform/sta/trace", 0x1dec_172e_b69d_2faa),
    ("uniform/segsort", 0x84ad_5e1e_d5ae_b3ef),
    ("uniform/segsort/trace", 0x7626_45e1_a671_d370),
    ("uniform/merge", 0x18cb_1b80_0413_9b93),
    ("uniform/merge/trace", 0x3c3f_8a2d_85ea_2cc1),
    ("heavy/gas", 0x4c94_b1f0_2b3e_ddfc),
    ("heavy/gas/trace", 0xc2b5_41a7_ae84_9b81),
    ("heavy/gas-fused", 0x2cb0_efe8_2cc8_b10b),
    ("heavy/gas-fused/trace", 0xe3a5_7967_f97d_6f10),
    ("heavy/gas-warp", 0xbfa2_c4b5_3f94_580c),
    ("heavy/gas-warp/trace", 0xf7ac_219d_74fe_8a1a),
    ("heavy/sta", 0xaf97_41a5_8e9a_c942),
    ("heavy/sta/trace", 0x2263_61f5_1365_5188),
    ("heavy/segsort", 0x7cea_3321_f107_8579),
    ("heavy/segsort/trace", 0x6e29_7004_6e6a_e2f1),
    ("heavy/merge", 0x8992_e046_d0aa_44f0),
    ("heavy/merge/trace", 0xbb4c_3d64_d5ca_9d01),
    ("heavy/gas/deterministic", 0xcaa5_4844_d37b_993a),
    ("heavy/gas/deterministic/trace", 0x33fc_056f_a770_63f8),
    ("heavy/gas-fused/deterministic", 0xe392_2bc8_c606_4787),
    ("heavy/gas-fused/deterministic/trace", 0xe8b0_1f2e_3b2d_e4a8),
    ("heavy/gas-warp/deterministic", 0xa32e_3f58_ff9a_c8f4),
    ("heavy/gas-warp/deterministic/trace", 0x751d_70d2_fdd1_fde0),
    ("heavy/gas/adaptive", 0x1d46_26d0_44a6_646c),
    ("heavy/gas/adaptive/trace", 0x59bc_b7be_d097_be56),
];

const RECOVERING_HASHES: &[(&str, u64)] = &[
    ("scripted/gas/json", 0x6e1a_4710_f692_53a8),
    ("scripted/gas/text", 0x00ed_f525_982f_9063),
    ("scripted/gas-fused/json", 0x2734_a80e_6cb9_da28),
    ("scripted/gas-fused/text", 0xdec9_5813_f529_87a4),
    ("scripted/gas-warp/json", 0xcfc3_e203_8ec6_4629),
    ("scripted/gas-warp/text", 0xd55d_21a2_44d9_ee1b),
    ("scripted/sta/json", 0xc834_9cb7_fb7b_4962),
    ("scripted/sta/text", 0xf950_e8ad_1264_603e),
    ("storm/gas/json", 0x10cc_7643_61a6_06fb),
    ("storm/gas/text", 0xdd49_f757_c884_91e1),
    ("storm/gas-fused/json", 0xba8e_0a9d_8c1e_e7b3),
    ("storm/gas-fused/text", 0xf964_989a_27ad_6462),
    ("storm/gas-warp/json", 0xcff3_3d95_402c_b538),
    ("storm/gas-warp/text", 0x4671_900e_35d8_796d),
    ("storm/sta/json", 0x251a_9463_5ae1_91f1),
    ("storm/sta/text", 0xfdf5_4ab4_e7d8_efb6),
];

const PROFILE_HASHES: &[(&str, u64)] = &[
    ("profile/gas", 0xf961_7c32_cd0b_36e5),
    ("profile/gas/trace", 0x6676_7b34_e136_94c5),
    ("profile/gas-fused", 0x2771_2512_28ef_daf1),
    ("profile/gas-fused/trace", 0x0d4e_a7e1_8ea5_3498),
    ("profile/gas-warp", 0xde3e_b782_5856_eb81),
    ("profile/gas-warp/trace", 0xc729_36a8_a43f_6e61),
    ("profile/sta", 0x4a50_dc7f_7465_7d7e),
    ("profile/sta/trace", 0x1dec_172e_b69d_2faa),
];

const CHAOS_HASHES: &[(&str, u64)] = &[
    ("chaos/gas", 0xc6b0_2b91_3ef1_eae2),
    ("chaos/gas-fused", 0x6c7d_3173_2d92_6055),
    ("chaos/gas-warp", 0xf64f_62aa_f42e_a3e7),
];
