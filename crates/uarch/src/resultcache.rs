//! The COBRA Binary Result (CBR) format — persisted evaluation results.
//!
//! A `.cbr` file is one measured [`PerfReport`] bound to the exact
//! experiment that produced it: design, topology, FNV-1a configuration
//! hash (see [`crate::checkpoint::config_hash`]), workload, measured
//! instruction bound, and warmup boundary. It is the tier-1 entry of the
//! `cobra-serve` warm cache: an exact identity match returns the stored
//! report instead of re-simulating, and because the simulator is
//! deterministic the stored report *is* the report a fresh run would
//! produce — byte-for-byte once rendered.
//!
//! The header, frame, size caps and errors are the shared container
//! framing ([`cobra_sim::container`]); this module adds only the
//! identity fields and the payload schema, specified in
//! `docs/CONTAINER_FORMAT.md` at the repository root. [`read_result`]
//! verifies the *whole* file and every identity field before a byte of
//! payload is trusted, so a truncated, bit-flipped, or stale entry can
//! never poison a served result. The payload reuses the `.cbm` counter
//! and attribution codecs ([`crate::metrics`]), so the two formats
//! cannot drift.

use crate::metrics::{decode_attr, decode_host, encode_attr, encode_host, MAX_LABELS};
use crate::{PerfCounters, PerfReport};
use cobra_sim::container::{
    self, cap, put_str, ContainerError, Format, HeaderReader, HeaderWriter, SliceCursor,
};
use cobra_sim::varint;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// The `.cbr` framing: magic `COBRACBR`, footer `CBRX`, version 1,
/// payload at most 1 MiB.
pub const FORMAT: Format = Format {
    magic: *b"COBRACBR",
    footer_magic: *b"CBRX",
    version: 1,
    max_payload: 1 << 20,
};

/// The identity a persisted result is bound to — the full cache key.
///
/// [`read_result`] compares every field against the file header and
/// refuses on any mismatch, so a hash-prefix filename collision or a
/// hand-renamed file can never serve the wrong experiment's numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbrMeta {
    /// Design name (e.g. `"TAGE-L"`).
    pub design: String,
    /// Topology string in the paper's notation.
    pub topology: String,
    /// FNV-1a hash over the full design + core configuration (see
    /// [`crate::checkpoint::config_hash`]).
    pub config_hash: u64,
    /// Workload name the run simulated.
    pub workload: String,
    /// Measured instruction bound of the run.
    pub insts: u64,
    /// Warmup boundary (committed instructions) excluded from the
    /// measurement.
    pub warmup_insts: u64,
}

impl CbrMeta {
    /// Checks `self` (read from a file) against the identity a caller
    /// `expected`, field by field in header order.
    fn check(&self, expected: &CbrMeta) -> Result<(), ContainerError> {
        container::same("design", &self.design, &expected.design)?;
        container::same("topology", &self.topology, &expected.topology)?;
        container::same(
            "config hash",
            format!("{:#018x}", self.config_hash),
            format!("{:#018x}", expected.config_hash),
        )?;
        container::same("workload", &self.workload, &expected.workload)?;
        container::same("instruction bound", self.insts, expected.insts)?;
        container::same("warmup boundary", self.warmup_insts, expected.warmup_insts)
    }
}

/// Serializes `report` into `w` as a `.cbr` file bound to `meta`, and
/// returns the bytes written.
///
/// # Errors
///
/// [`ContainerError::Malformed`] if the report's override edges name
/// components missing from its own rows, [`ContainerError::LimitExceeded`]
/// if a string, the row count or the payload is over its cap (nothing is
/// written then); I/O errors.
pub fn save_result<W: Write>(
    w: W,
    meta: &CbrMeta,
    report: &PerfReport,
) -> Result<u64, ContainerError> {
    let labels: Vec<&str> = report
        .attribution
        .components
        .iter()
        .map(|c| c.label.as_str())
        .collect();
    let row_index: BTreeMap<&str, u64> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, i as u64))
        .collect();

    let mut h = HeaderWriter::new(&FORMAT);
    h.str("header design name", &meta.design)?;
    h.str("header topology", &meta.topology)?;
    h.u64(meta.config_hash);
    h.str("header workload name", &meta.workload)?;
    h.varint(meta.insts);
    h.varint(meta.warmup_insts);

    cap("label count", labels.len() as u64, MAX_LABELS)?;
    let mut payload = Vec::with_capacity(512);
    put_str(&mut payload, "payload workload name", &report.workload)?;
    put_str(&mut payload, "payload design name", &report.design)?;
    varint::write_u64(&mut payload, labels.len() as u64);
    for l in &labels {
        put_str(&mut payload, "payload component label", l)?;
    }
    encode_host(&mut payload, &report.counters.to_host());
    encode_attr(&mut payload, &report.attribution, &row_index)?;
    container::write_framed(w, &FORMAT, h, &payload)
}

/// Parses and checksums a `.cbr` header, returning the identity record
/// without touching the payload.
///
/// # Errors
///
/// Any [`ContainerError`] describing the first malformed header structure.
pub fn read_result_meta<R: Read>(mut r: R) -> Result<CbrMeta, ContainerError> {
    read_header(&mut r)
}

/// Reads, checksums, identity-verifies, and fully decodes a `.cbr` file.
///
/// Every header field must equal `expected` — the caller states which
/// experiment it is about to serve, and the file must agree. Nothing
/// about the file is trusted before its checksums, identity, and shape
/// checks pass.
///
/// # Errors
///
/// Any [`ContainerError`]; [`ContainerError::IdentityMismatch`] names the
/// first identity field that differs.
pub fn read_result<R: Read>(mut r: R, expected: &CbrMeta) -> Result<PerfReport, ContainerError> {
    let meta = read_header(&mut r)?;
    meta.check(expected)?;
    let payload = container::read_payload(&mut r, &FORMAT)?;

    let mut c = SliceCursor::new(&payload);
    let workload = c.str("payload workload name")?;
    let design = c.str("payload design name")?;
    let n_labels = c.varint("payload label count")?;
    cap("label count", n_labels, MAX_LABELS)?;
    let mut labels = Vec::with_capacity(n_labels as usize);
    for _ in 0..n_labels {
        labels.push(c.str("payload component label")?);
    }
    let host = decode_host(&mut c, "payload counters")?;
    let attribution = decode_attr(&mut c, &labels, "payload attribution")?;
    c.finish("payload bytes remain after the attribution section")?;
    if workload != meta.workload {
        return Err(ContainerError::Malformed {
            what: "payload workload disagrees with the header",
        });
    }
    if design != meta.design {
        return Err(ContainerError::Malformed {
            what: "payload design disagrees with the header",
        });
    }
    Ok(PerfReport {
        workload,
        design,
        counters: PerfCounters::from_host(&host),
        attribution,
    })
}

fn read_header<R: Read>(r: &mut R) -> Result<CbrMeta, ContainerError> {
    let mut h = HeaderReader::open(r, &FORMAT)?;
    let meta = CbrMeta {
        design: h.str("header design name")?,
        topology: h.str("header topology")?,
        config_hash: h.u64("header config hash")?,
        workload: h.str("header workload name")?,
        insts: h.varint("header instruction bound")?,
        warmup_insts: h.varint("header warmup boundary")?,
    };
    h.finish()?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::obs::{
        AttributionReport, ComponentAttribution, ComponentCounters, OverrideEdge,
    };

    fn sample_report() -> PerfReport {
        let row = |label: &str, q: u64, b: u64| ComponentAttribution {
            label: label.into(),
            counters: ComponentCounters {
                queries: q,
                fires: q / 2,
                direction_blame: b,
                target_blame: b / 2,
                provided_final: q / 3,
                ..ComponentCounters::default()
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
                    row("(static)", 0, 1),
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

    fn sample_meta() -> CbrMeta {
        CbrMeta {
            design: "B2".into(),
            topology: "GBIM2(BIM1)".into(),
            config_hash: 0x1234_5678_9abc_def0,
            workload: "gcc".into(),
            insts: 20_000,
            warmup_insts: 8_000,
        }
    }

    fn encode() -> Vec<u8> {
        let mut buf = Vec::new();
        save_result(&mut buf, &sample_meta(), &sample_report()).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_exact() {
        let bytes = encode();
        let report = read_result(&bytes[..], &sample_meta()).unwrap();
        assert_eq!(report, sample_report());
    }

    #[test]
    fn meta_reads_without_payload() {
        let bytes = encode();
        assert_eq!(read_result_meta(&bytes[..]).unwrap(), sample_meta());
    }

    #[test]
    fn identity_mismatches_are_precise() {
        let bytes = encode();
        let mut m = sample_meta();
        m.design = "TAGE-L".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "design",
                ..
            })
        ));
        let mut m = sample_meta();
        m.topology = "BIM2".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "topology",
                ..
            })
        ));
        let mut m = sample_meta();
        m.config_hash ^= 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "config hash",
                ..
            })
        ));
        let mut m = sample_meta();
        m.workload = "xz".into();
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "workload",
                ..
            })
        ));
        let mut m = sample_meta();
        m.insts += 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "instruction bound",
                ..
            })
        ));
        let mut m = sample_meta();
        m.warmup_insts += 1;
        assert!(matches!(
            read_result(&bytes[..], &m),
            Err(ContainerError::IdentityMismatch {
                field: "warmup boundary",
                ..
            })
        ));
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let bytes = encode();
        for cut in 0..bytes.len() {
            assert!(
                read_result(&bytes[..cut], &sample_meta()).is_err(),
                "truncation at {cut}/{} went undetected",
                bytes.len()
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                read_result(&bad[..], &sample_meta()).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode();
        bytes.push(0);
        assert!(matches!(
            read_result(&bytes[..], &sample_meta()),
            Err(ContainerError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn error_messages_are_precise() {
        let mut bad = encode();
        bad[0] = b'X';
        let s = read_result(&bad[..], &sample_meta())
            .unwrap_err()
            .to_string();
        assert!(s.contains("COBRACBR"), "{s}");
        let e = ContainerError::IdentityMismatch {
            field: "design",
            stored: "B2".into(),
            expected: "TAGE-L".into(),
        };
        let s = e.to_string();
        assert!(s.contains("B2") && s.contains("TAGE-L"), "{s}");
    }

    #[test]
    fn oversized_topology_is_refused_before_writing() {
        let mut meta = sample_meta();
        meta.topology = "B".repeat(container::MAX_NAME_BYTES as usize + 1);
        let mut buf = Vec::new();
        assert!(matches!(
            save_result(&mut buf, &meta, &sample_report()),
            Err(ContainerError::LimitExceeded {
                what: "header topology",
                got: 4097,
                max: 4096
            })
        ));
        assert!(buf.is_empty(), "nothing is written");
        meta.topology.pop();
        save_result(&mut buf, &meta, &sample_report()).expect("exactly at the cap");
        assert_eq!(read_result(&buf[..], &meta).unwrap(), sample_report());
    }
}
