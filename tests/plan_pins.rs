//! Plan bytes, pinned. Each case holds a keyless 64-bit FNV-1a digest of
//! `EncodingPlan::fingerprint()`, the canonical dump of everything a plan
//! tells the runtime and the decoder (and the body of a `deltapath.plan.v1`
//! file). A change to how the analysis stores or renders its tables must
//! leave every digest as it is; a change that means to alter plans updates
//! the table and says why.
//!
//! The cases: every bundled program at both scopes at 64 bits, except
//! sunflow's encoding-all plan (seconds of analysis even in release);
//! compress at 16 bits and mpegaudio at 32 bits under encoding-all, where
//! the overflow loop restarts (22 and 8 times); and one plan each with
//! batched overflow and with a territory budget.

use deltapath::workloads::specjvm::{program, suite};
use deltapath::{EncodingPlan, EncodingWidth, PlanConfig, ScopeFilter};

/// The pinned digests, by case label (`program scope bits [extra]`).
const PINNED: &[(&str, u64)] = &[
    ("compiler.compiler app 64", 0xf618_1fda_ab41_29b9),
    ("compiler.compiler all 64", 0x8164_ec3e_bf43_5771),
    ("compiler.sunflow app 64", 0x69f1_494b_6470_7944),
    ("compiler.sunflow all 64", 0x6f26_bc53_5f04_1210),
    ("compress app 64", 0xf8e8_720b_5492_b078),
    ("compress all 64", 0x36df_8396_3ef4_3ddf),
    ("crypto.aes app 64", 0x437e_8964_f8a1_8221),
    ("crypto.aes all 64", 0x6e01_2df3_1b31_00cf),
    ("crypto.rsa app 64", 0x70e5_e3e6_baf6_e36c),
    ("crypto.rsa all 64", 0xa9c6_b904_62a7_cbac),
    ("crypto.signverify app 64", 0x9379_bb3e_9496_4cc7),
    ("crypto.signverify all 64", 0x65b1_4f7b_b834_9158),
    ("mpegaudio app 64", 0x1c36_81bb_dd35_cd73),
    ("mpegaudio all 64", 0xe058_cafa_76a3_f1d2),
    ("scimark.fft.large app 64", 0x8ea6_0217_5f9e_e256),
    ("scimark.fft.large all 64", 0x8640_f561_a018_4671),
    ("scimark.lu.large app 64", 0x91e7_4354_35de_9d58),
    ("scimark.lu.large all 64", 0x0b72_60ab_def2_cc73),
    ("scimark.monte_carlo app 64", 0x8a44_17e5_4bde_f337),
    ("scimark.monte_carlo all 64", 0x8250_2827_aa2e_ef40),
    ("scimark.sor.large app 64", 0x770d_3bdf_646a_d0d6),
    ("scimark.sor.large all 64", 0xda41_0a1c_58ac_92a9),
    ("scimark.sparse.large app 64", 0xfe15_4b70_3ffa_8c21),
    ("scimark.sparse.large all 64", 0x123b_0653_c5bb_b73b),
    ("sunflow app 64", 0xa5ae_6440_c083_16d1),
    ("xml.transform app 64", 0x4324_f798_3bc7_623d),
    ("xml.transform all 64", 0xdd30_b0ad_6e6b_85cb),
    ("xml.validation app 64", 0x8c7f_cd0c_97cf_f90a),
    ("xml.validation all 64", 0x8929_6305_4197_ef6e),
    ("compress all 16", 0x00c5_653a_8a3d_7ed5),
    ("mpegaudio all 32", 0x8c3a_38c2_8f3f_055f),
    ("compress all 16 batch", 0x37a5_6487_5e23_d629),
    ("mpegaudio all 64 budget=32", 0x6a29_5cb1_b5bd_f776),
];

/// 64-bit FNV-1a: keyless, so a digest is the same on every run and host.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every pinned case: its label, program and plan configuration.
fn cases() -> Vec<(String, &'static str, PlanConfig)> {
    let config = |scope, bits| {
        PlanConfig::default()
            .with_scope(scope)
            .with_width(EncodingWidth::new(bits))
    };
    let mut cases = Vec::new();
    for bench in suite() {
        cases.push((
            format!("{} app 64", bench.name),
            bench.name,
            config(ScopeFilter::ApplicationOnly, 64),
        ));
        if bench.name != "sunflow" {
            cases.push((
                format!("{} all 64", bench.name),
                bench.name,
                config(ScopeFilter::All, 64),
            ));
        }
    }
    cases.push((
        "compress all 16".into(),
        "compress",
        config(ScopeFilter::All, 16),
    ));
    cases.push((
        "mpegaudio all 32".into(),
        "mpegaudio",
        config(ScopeFilter::All, 32),
    ));
    cases.push((
        "compress all 16 batch".into(),
        "compress",
        config(ScopeFilter::All, 16).with_batch_overflow(),
    ));
    cases.push((
        "mpegaudio all 64 budget=32".into(),
        "mpegaudio",
        config(ScopeFilter::All, 64).with_territory_budget(32),
    ));
    cases
}

#[test]
fn plan_fingerprints_match_their_pinned_digests() {
    let mut problems = Vec::new();
    let mut seen = Vec::new();
    for (label, name, config) in cases() {
        let p = program(name).expect("a bundled program");
        let plan = EncodingPlan::analyze(&p, &config).expect("the plan analyzes");
        let digest = fnv1a(plan.fingerprint().as_bytes());
        match PINNED.iter().find(|&&(pinned, _)| pinned == label) {
            Some(&(_, want)) if want == digest => {}
            Some(&(_, want)) => problems.push(format!(
                "{label}: digest {digest:#018x}, pinned {want:#018x}"
            )),
            None => problems.push(format!("{label}: digest {digest:#018x} is not pinned")),
        }
        seen.push(label);
    }
    for &(label, _) in PINNED {
        if !seen.iter().any(|s| s == label) {
            problems.push(format!("{label}: pinned but not a case"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
