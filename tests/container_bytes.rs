//! Pins the on-disk bytes of the four binary containers (`.cbt`, `.cbm`,
//! `.cbs`, `.cbr`) to the worked examples in `docs/*_FORMAT.md` and to a
//! recorded `.cbr` fixture.
//!
//! Round-trip tests cannot catch a change made symmetrically to a writer
//! and its reader; these assertions can. Any change to the bytes below is
//! a format change and needs a version bump, not a test edit.

use cobra::core::designs;
use cobra::core::obs::{AttributionReport, ComponentAttribution, ComponentCounters, OverrideEdge};
use cobra::uarch::{
    config_hash, save_checkpoint, save_metrics, save_result, CbmMeta, CbrMeta, CbsMeta, CfiOutcome,
    Core, CoreConfig, DynInst, IterStream, Op, PerfCounters, PerfReport,
};
use cobra::workloads::{capture_stream, spec17};

/// Parses whitespace-separated hex byte pairs.
fn hex(s: &str) -> Vec<u8> {
    s.split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

/// `docs/TRACE_FORMAT.md`, "Worked example": the `tiny` capture.
#[test]
fn cbt_tiny_example_is_115_documented_bytes() {
    let insts = vec![
        DynInst::int(0x100),
        DynInst {
            pc: 0x102,
            op: Op::Load { addr: 0x8000 },
            cfi: None,
            dep: 0,
        },
        DynInst {
            pc: 0x104,
            op: Op::Cfi,
            cfi: Some(CfiOutcome {
                kind: cobra::core::BranchKind::Conditional,
                taken: true,
                target: 0x100,
                sfb: false,
            }),
            dep: 0,
        },
        DynInst::int(0x100),
    ];
    let mut stream = IterStream::new(0x100, insts.into_iter());
    let mut bytes = Vec::new();
    let summary = capture_stream(&mut stream, 4, "tiny", &mut bytes).expect("capture");
    let expected = hex("43 4f 42 52 41 43 42 54  01 00 00 00 04 74 69 6e
         79 80 02 89 88 c0 87 08  00 00 00 04 00 00 00 00
         01 00 00 00 00 00 00 98  c8 31 b3 00 04 80 80 04
         18 0b 00 80 02 00 00 f5  d0 a8 55 33 00 00 00 00
         00 00 00 01 00 00 00 17  00 00 00 00 00 00 00 00
         00 00 00 00 00 00 00 00  01 00 00 00 00 00 00 04
         00 00 00 00 00 00 00 65  ae 23 f2 30 00 00 00 43
         42 54 58");
    assert_eq!(expected.len(), 115);
    assert_eq!(bytes, expected);
    assert_eq!(summary.bytes, 115);
}

/// The identity header every B2 example shares: magic prefix, `"B2"`,
/// its topology, and the configuration hash of B2 on the default core.
fn b2_identity_prefix(magic: &[u8; 8], hash: u64) -> Vec<u8> {
    let mut h = magic.to_vec();
    h.extend(hex("01 00 00 00 02 42 32 13"));
    h.extend_from_slice(b"GTAG3 > BTB2 > BIM2");
    h.extend_from_slice(&hash.to_le_bytes());
    h.extend(hex("02 78 7a"));
    h
}

/// `docs/METRICS_FORMAT.md`, "Worked example": B2 on `xz`, 4 000
/// measured instructions after 1 600 of warmup, 1 000-instruction
/// intervals.
#[test]
fn cbm_b2_xz_example_matches_documented_header_and_length() {
    let design = designs::b2();
    let cfg = CoreConfig::boom_4wide();
    let mut core = Core::new(&design, cfg, spec17::spec17("xz").build()).expect("B2 composes");
    core.set_interval(1000);
    let report = core.run_with_warmup(1600, 4000, "xz");
    let series = core.take_intervals().expect("interval telemetry armed");
    let meta = CbmMeta {
        design: design.name.clone(),
        topology: design.topology.clone(),
        config_hash: config_hash(&design, &cfg),
        workload: "xz".into(),
        warmup_insts: 1600,
        interval_n: series.interval_n,
        sig_buckets: cobra::core::obs::interval::SIG_BUCKETS as u64,
    };
    let mut bytes = Vec::new();
    let written = save_metrics(
        &mut bytes,
        &meta,
        &series,
        &report.counters.to_host(),
        &report.attribution,
    )
    .expect("save metrics");

    let hash = u64::from_le_bytes([0x99, 0x99, 0x44, 0xc6, 0x67, 0xd5, 0xe6, 0x17]);
    assert_eq!(meta.config_hash, hash);
    let mut expected = b2_identity_prefix(b"COBRACBM", hash);
    expected.extend(hex("c0 0c e8 07 40 04
         04 42 49 4d 32
         04 42 54 42 32
         05 47 54 41 47 33
         08 28 73 74 61 74 69 63 29
         97 ba 6d 5b
         ca 02 00 00
         04 00 c3 0c"));
    assert_eq!(expected.len(), 0x59);
    assert_eq!(&bytes[..0x59], &expected[..]);
    assert_eq!(bytes.len(), 807);
    assert_eq!(written, 807);
    assert_eq!(&bytes[bytes.len() - 4..], b"CBMX");
}

/// `docs/CHECKPOINT_FORMAT.md`, "Worked example": the header of a B2
/// checkpoint of `xz` at warmup 2 000 on the default core.
#[test]
fn cbs_b2_xz_example_header_matches_documented_bytes() {
    let design = designs::b2();
    let cfg = CoreConfig::boom_4wide();
    let mut core = Core::new(&design, cfg, spec17::spec17("xz").build()).expect("B2 composes");
    core.run(2000, "xz");
    let meta = CbsMeta::for_run(&design, &cfg, "xz", 2000);
    let mut bytes = Vec::new();
    let written = save_checkpoint(&mut bytes, &meta, &core).expect("save checkpoint");
    assert_eq!(written, bytes.len() as u64);

    let hash = u64::from_le_bytes([0x99, 0x99, 0x44, 0xc6, 0x67, 0xd5, 0xe6, 0x17]);
    assert_eq!(meta.config_hash, hash);
    let mut expected = b2_identity_prefix(b"COBRACBS", hash);
    expected.extend(hex("d0 0f"));
    assert_eq!(expected.len(), 0x30);
    assert_eq!(cobra::sim::crc32c(&expected), 0xb429_a23b);
    expected.extend(hex("3b a2 29 b4"));
    assert_eq!(&bytes[..0x34], &expected[..]);

    // Frame: payload_len, payload, payload CRC, footer magic, EOF.
    let payload_len = u32::from_le_bytes(bytes[0x34..0x38].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), 0x38 + payload_len + 4 + 4);
    let mut crc = cobra::sim::Crc32c::new();
    crc.update(&bytes[0x34..0x38 + payload_len]);
    let crc_at = 0x38 + payload_len;
    assert_eq!(
        crc.finish().to_le_bytes(),
        bytes[crc_at..crc_at + 4],
        "payload CRC covers payload_len ++ payload"
    );
    assert_eq!(&bytes[crc_at + 4..], b"CBSX");
}

fn fixture_report() -> PerfReport {
    let row = |label: &str, q: u64, b: u64| ComponentAttribution {
        label: label.into(),
        counters: ComponentCounters {
            queries: q,
            fires: q / 2,
            mispredict_events: b * 3,
            repairs: b / 4,
            updates: q - 1,
            provided_final: q / 3,
            overridden: b / 5,
            direction_blame: b,
            target_blame: b / 2,
        },
    };
    PerfReport {
        workload: "gcc".into(),
        design: "B2".into(),
        counters: PerfCounters {
            cycles: 12_345,
            committed_insts: 20_000,
            cond_branches: 4_100,
            cfis: 5_000,
            cond_mispredicts: 210,
            target_mispredicts: 33,
            override_redirects: 40,
            history_replays: 7,
            fetch_bubbles: 900,
            icache_stall_cycles: 120,
            rob_stall_cycles: 310,
        },
        attribution: AttributionReport {
            components: vec![
                row("GBIM2", 900, 40),
                row("BIM1", 700, 11),
                row("(static)", 1, 1),
            ],
            packets_with_prediction: 1_500,
            hf_high_water: 9,
            ghist_snapshot_repairs: 13,
            lhist_repairs: 2,
            overrides: vec![OverrideEdge {
                winner: "GBIM2".into(),
                loser: "BIM1".into(),
                count: 77,
            }],
        },
    }
}

/// A fixed `.cbr` result entry, recorded as hex from the encoder that
/// introduced the format.
#[test]
fn cbr_fixture_bytes_are_stable() {
    let meta = CbrMeta {
        design: "B2".into(),
        topology: "GBIM2(BIM1)".into(),
        config_hash: 0x1234_5678_9abc_def0,
        workload: "gcc".into(),
        insts: 20_000,
        warmup_insts: 8_000,
    };
    let mut bytes = Vec::new();
    let written = save_result(&mut bytes, &meta, &fixture_report()).expect("save result");
    assert_eq!(written, bytes.len() as u64);
    let expected = hex(CBR_FIXTURE);
    assert_eq!(bytes, expected, "got {}", to_hex(&bytes));
    let back = cobra::uarch::read_result(&bytes[..], &meta).expect("fixture reads back");
    assert_eq!(back, fixture_report());
}

fn to_hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The 151-byte `.cbr` entry for [`fixture_report`]: header (design,
/// topology, config hash, workload, insts 20 000, warmup 8 000, CRC),
/// then `payload_len | payload | payload_crc | "CBRX"`.
const CBR_FIXTURE: &str = "
    43 4f 42 52 41 43 42 52  01 00 00 00 02 42 32 0b
    47 42 49 4d 32 28 42 49  4d 31 29 f0 de bc 9a 78
    56 34 12 03 67 63 63 a0  9c 01 c0 3e 69 ec 1d ca
    5b 00 00 00 03 67 63 63  02 42 32 03 05 47 42 49
    4d 32 04 42 49 4d 31 08  28 73 74 61 74 69 63 29
    b9 60 a0 9c 01 84 20 88  27 d2 01 21 28 07 84 07
    78 b6 02 84 07 c2 03 78  0a 83 07 ac 02 08 28 14
    bc 05 de 02 21 02 bb 05  e9 01 02 0b 05 01 00 03
    00 00 00 00 01 00 dc 0b  09 0d 02 01 00 01 4d 77
    77 8b a3 43 42 52 58";
