//! Self-contained `.repro` files: a failing case serialized with enough
//! context to replay it in another process (or another machine) with
//! nothing but the repo checkout.

use crate::differential::{check_case, CaseFailure, CaseOutcome};
use crate::generator::GraphSpec;
use crate::invariants::CheckOptions;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format version, bumped on incompatible [`GraphSpec`] changes.
pub const REPRO_VERSION: u32 = 1;

/// A serialized failing case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Repro {
    /// Format version.
    pub version: u32,
    /// Failure class at capture time (see [`CaseFailure::kind`]).
    pub kind: String,
    /// Human-readable failure description at capture time.
    pub failure: String,
    /// Whether the test-only quant-bug hook was armed when this case
    /// failed (replay re-arms it so the failure reproduces).
    pub inject_quant_bug: bool,
    /// The minimized spec.
    pub spec: GraphSpec,
}

impl Repro {
    /// Capture a failing case.
    pub fn capture(spec: &GraphSpec, failure: &CaseFailure, opts: &CheckOptions) -> Self {
        Repro {
            version: REPRO_VERSION,
            kind: failure.kind(),
            failure: failure.to_string(),
            inject_quant_bug: opts.inject_quant_bug,
            spec: spec.clone(),
        }
    }

    /// The harness options the case was captured under.
    pub fn options(&self) -> CheckOptions {
        CheckOptions {
            inject_quant_bug: self.inject_quant_bug,
        }
    }

    /// Re-run the case under its captured options. `Err` means the
    /// failure still reproduces; `Ok` means it no longer does (fixed).
    pub fn replay(&self) -> Result<CaseOutcome, CaseFailure> {
        check_case(&self.spec, &self.options())
    }

    /// Deterministic file stem, e.g. `divergence-BYOC-APU-seed42`.
    pub fn file_stem(&self) -> String {
        let slug: String = self
            .kind
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{slug}-seed{}", self.spec.seed)
    }
}

/// Write a repro as JSON.
pub fn write_repro(path: &Path, repro: &Repro) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string(repro)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json)
}

/// Load a repro, rejecting unknown format versions.
pub fn read_repro(path: &Path) -> std::io::Result<Repro> {
    let json = std::fs::read_to_string(path)?;
    let repro: Repro = serde_json::from_str(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    if repro.version != REPRO_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unsupported repro version {}", repro.version),
        ));
    }
    Ok(repro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GraphSpec, SpecOp};

    fn sample() -> Repro {
        Repro {
            version: REPRO_VERSION,
            kind: "invariant:quant-params".to_string(),
            failure: "example".to_string(),
            inject_quant_bug: true,
            spec: GraphSpec {
                seed: 7,
                in_channels: 2,
                height: 4,
                width: 4,
                quantize: true,
                ops: vec![
                    SpecOp::Conv2d {
                        input: 0,
                        out_channels: 1,
                        kernel: 1,
                        bias: false,
                    },
                    SpecOp::Relu { input: 1 },
                ],
            },
        }
    }

    #[test]
    fn repro_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("tvmnp-repro-test-{}", std::process::id()));
        let repro = sample();
        let path = dir.join(format!("{}.repro", repro.file_stem()));
        write_repro(&path, &repro).unwrap();
        let loaded = read_repro(&path).unwrap();
        assert_eq!(loaded, repro);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Loading a repro does not judge its spec; replaying it does, and a
    /// spec Relay refuses replays as a `spec` failure naming the op.
    #[test]
    fn a_repro_relay_refuses_loads_and_replays_as_a_spec_failure() {
        let dir = std::env::temp_dir().join(format!("tvmnp-repro-spec-{}", std::process::id()));
        let mut repro = sample();
        repro.spec.ops = vec![
            SpecOp::MaxPool { input: 0 },
            SpecOp::Concat { lhs: 1, rhs: 0 },
        ];
        let path = dir.join(format!("{}.repro", repro.file_stem()));
        write_repro(&path, &repro).unwrap();
        let loaded = read_repro(&path).unwrap();
        let failure = loaded.replay().unwrap_err();
        assert_eq!(failure.kind(), "spec");
        assert!(failure.to_string().contains("concatenate"), "{failure}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("tvmnp-repro-ver-{}", std::process::id()));
        let mut repro = sample();
        repro.version = 99;
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.repro");
        std::fs::write(&path, serde_json::to_string(&repro).unwrap()).unwrap();
        assert!(read_repro(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
