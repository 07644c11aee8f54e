//! Design identity and the compiled design artifact.
//!
//! A design is identified by the full content of its
//! [`SocConfig`] — every field participates in the
//! hash, so changing one fraction or domain frequency yields a new
//! cache identity while re-submitting the same config (from any
//! client, any session) lands on the same compiled artifact.
//!
//! One [`DesignArtifact`] serves *every* clocking mode and mask
//! setting of its design: [`Soc::binding`](occ_soc::Soc::binding)
//! varies only the masked-cell list, never the flop/domain resolution,
//! so the compiled [`SimGraph`] is identical
//! across all of them and is shared by `Arc`.

use crate::hash::Fnv64;
use occ_fsim::{CaptureModel, SimGraph};
use occ_soc::{generate, Soc, SocConfig};
use std::sync::Arc;

/// The stable content hash of a generator configuration.
#[must_use]
pub fn design_hash(config: &SocConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(config.seed);
    h.write_str(&config.name);
    h.write_u64(config.domains.len() as u64);
    for d in &config.domains {
        h.write_str(&d.name);
        h.write_f64(d.freq_mhz);
        h.write_u64(d.flops as u64);
    }
    h.write_u64(config.gates_per_flop as u64);
    h.write_u64(config.pi_count as u64);
    h.write_u64(config.po_count as u64);
    h.write_f64(config.non_scan_fraction);
    h.write_f64(config.crossing_fraction);
    h.write_f64(config.reset_fraction);
    h.write_u64(config.ram_blocks as u64);
    h.write_u64(u64::from(config.ram_addr_bits));
    h.write_u64(u64::from(config.ram_data_bits));
    h.write_u64(config.bidi_pads as u64);
    h.write_u64(config.scan_chains as u64);
    h.finish()
}

/// A generated SOC plus its compiled simulation graph — the expensive
/// per-design work (netlist generation, scan insertion, levelization,
/// CSR edge layout) done exactly once and shared by every job on the
/// design.
#[derive(Debug)]
pub struct DesignArtifact {
    /// The generated, scan-inserted SOC.
    pub soc: Soc,
    /// The compiled graph, shared into every flow via
    /// [`CaptureModel::with_graph`](occ_fsim::CaptureModel::with_graph).
    pub graph: Arc<SimGraph>,
}

impl DesignArtifact {
    /// Generates and compiles a design. The graph is compiled under
    /// the unmasked binding; mask settings do not affect it (they
    /// change forced/masked *values*, applied per pattern, not the
    /// graph structure).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations the generator rejects
    /// (callers validate via [`crate::proto`] before reaching here).
    #[must_use]
    pub fn build(config: &SocConfig) -> Self {
        let soc = generate(config);
        let graph = CaptureModel::new(soc.netlist(), soc.binding(false))
            .expect("generated SOCs always bind")
            .graph_arc();
        DesignArtifact { soc, graph }
    }

    /// Approximate resident bytes (graph arrays plus the netlist's own
    /// heap) — the unit of the cache byte budget.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.graph.approx_bytes() + self.soc.netlist().approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let a = SocConfig::tiny(7);
        assert_eq!(design_hash(&a), design_hash(&SocConfig::tiny(7)));
        assert_ne!(design_hash(&a), design_hash(&SocConfig::tiny(8)));
        let mut b = SocConfig::tiny(7);
        b.crossing_fraction += 0.01;
        assert_ne!(design_hash(&a), design_hash(&b));
        let mut c = SocConfig::tiny(7);
        c.domains[0].freq_mhz = 80.0;
        assert_ne!(design_hash(&a), design_hash(&c));
    }

    #[test]
    fn artifact_graph_matches_netlist() {
        let art = DesignArtifact::build(&SocConfig::tiny(3));
        assert_eq!(art.graph.cells(), art.soc.netlist().len());
        assert!(art.approx_bytes() > 0);
    }
}
