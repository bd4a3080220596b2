//! A model data plane: a [`FlowTable`] standing in for the switch. Probes
//! are answered exactly as the loopback switch simulator answers them —
//! `FlowTable::process` with ECMP choice 0, every emitted leg returning as
//! a probe observation on its egress port.

use monocle::proxy::ProbeInjection;
use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::{FlowTable, PortNo};
use monocle_packet::{PacketFields, ProbeMeta};

/// A probe observation on its way back to the proxy.
#[derive(Debug, Clone)]
pub struct Return {
    /// Payload metadata.
    pub meta: ProbeMeta,
    /// Egress port at the probed switch.
    pub port: PortNo,
    /// Received header.
    pub fields: PacketFields,
}

/// The switch's actual flow table.
#[derive(Debug, Default)]
pub struct ModelSwitch {
    /// Installed rules.
    pub table: FlowTable,
}

impl ModelSwitch {
    /// Observations a probe produces.
    pub fn answer(&self, inj: &ProbeInjection) -> Vec<Return> {
        let hdr = packet_to_headervec(inj.in_port, &inj.fields);
        self.table
            .process(&hdr, 0)
            .into_iter()
            .map(|(port, out)| Return {
                meta: inj.meta,
                port,
                fields: headervec_to_packet(&out),
            })
            .collect()
    }

    /// Silently removes the rule with this priority and match (a breakage
    /// the control plane does not see). Returns whether it was present.
    pub fn break_rule(&mut self, priority: u16, m: &monocle_openflow::Match) -> bool {
        let id = self
            .table
            .rules()
            .iter()
            .find(|r| r.priority == priority && r.match_ == *m)
            .map(|r| r.id);
        id.and_then(|id| self.table.remove_by_id(id)).is_some()
    }
}
