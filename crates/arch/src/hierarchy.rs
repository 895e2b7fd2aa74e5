//! Memory hierarchies, per-operand memory chains and full architectures.

use crate::mem::{Memory, PortId, PortUse};
use crate::{ArchError, MacArray};
use std::fmt;
use ulm_workload::{Operand, PerOperand};

/// Stable identifier of a memory module within a hierarchy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct MemoryId(pub usize);

impl fmt::Display for MemoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem{}", self.0)
    }
}

/// How Step 3 of the model integrates per-memory stalls into
/// `SS_overall` ("Users can customize this memory parallel operation
/// constraint based on the design", Section III-D).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize, Default)]
pub enum StallIntegration {
    /// All memory modules operate concurrently: one memory's stall hides
    /// under another's (`SS_overall = max_i SS_i`). The default.
    #[default]
    Concurrent,
    /// All memory modules operate sequentially: every stall blocks all
    /// other memories (`SS_overall = Σ_i SS_i`).
    Sequential,
    /// Memories within one group stall sequentially (sum); distinct groups
    /// operate concurrently (max). Memories absent from every group form
    /// implicit singleton groups.
    Groups(Vec<Vec<MemoryId>>),
}

/// A multi-level memory system: the memory modules, each operand's chain
/// of levels (innermost — closest to the MACs — first) and the port
/// assignment for every (memory, operand, direction) access.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemoryHierarchy {
    mems: Vec<Memory>,
    chains: PerOperand<Vec<MemoryId>>,
    /// Port assignment lookup table: one row per memory, slot
    /// `operand.index() * 2 + (usage == WriteIn)`. A flat array instead
    /// of a hash map because [`port`](Self::port) sits on the model's
    /// per-evaluation hot path (DTL build, bandwidth refresh, phases).
    /// Serialized as the sorted `((mem, op, dir), port)` entry list the
    /// map representation used, so the wire format is unchanged.
    #[serde(with = "port_map_serde")]
    port_map: Vec<[Option<PortId>; 6]>,
}

mod port_map_serde {
    use super::PortId;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    type Key = (usize, usize, u8);
    type Lut = Vec<[Option<PortId>; 6]>;

    pub fn serialize<S: Serializer>(lut: &Lut, ser: S) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(Key, PortId)> = Vec::new();
        for (mem, row) in lut.iter().enumerate() {
            for (slot, pid) in row.iter().enumerate() {
                if let Some(pid) = *pid {
                    entries.push(((mem, slot / 2, (slot % 2) as u8), pid));
                }
            }
        }
        entries.sort_unstable();
        entries.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Lut, D::Error> {
        let entries: Vec<(Key, PortId)> = Vec::deserialize(de)?;
        let rows = entries
            .iter()
            .map(|&((m, _, _), _)| m + 1)
            .max()
            .unwrap_or(0);
        let mut lut: Lut = vec![[None; 6]; rows];
        for ((mem, op, dir), pid) in entries {
            lut[mem][op * 2 + dir as usize] = Some(pid);
        }
        Ok(lut)
    }
}

impl MemoryHierarchy {
    /// Starts building a hierarchy. See [`HierarchyBuilder`].
    pub fn builder() -> HierarchyBuilder {
        HierarchyBuilder::default()
    }

    /// All memory modules.
    pub fn memories(&self) -> &[Memory] {
        &self.mems
    }

    /// The memory with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids come from this hierarchy).
    pub fn mem(&self, id: MemoryId) -> &Memory {
        &self.mems[id.0]
    }

    /// Mutable access to the memory with the given id, for in-place knob
    /// overrides ([`Memory::set_capacity_bits`],
    /// [`Memory::set_port_bandwidth`]). Structural invariants (chains,
    /// port assignments) cannot be broken through a `&mut Memory`: ports
    /// keep their directions and capacity/bandwidth setters re-check
    /// positivity.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids come from this hierarchy).
    pub fn mem_mut(&mut self, id: MemoryId) -> &mut Memory {
        &mut self.mems[id.0]
    }

    /// The memory ids of `op`'s chain, innermost level first.
    pub fn chain(&self, op: Operand) -> &[MemoryId] {
        self.chains.get(op)
    }

    /// Looks a memory up by name.
    pub fn find(&self, name: &str) -> Option<MemoryId> {
        self.mems
            .iter()
            .position(|m| m.name() == name)
            .map(MemoryId)
    }

    /// Operands served by memory `id`, in canonical order.
    pub fn served_operands(&self, id: MemoryId) -> Vec<Operand> {
        Operand::all()
            .filter(|&op| self.chain(op).contains(&id))
            .collect()
    }

    /// Number of operands served by memory `id`, without allocating.
    pub fn served_operand_count(&self, id: MemoryId) -> usize {
        Operand::all()
            .filter(|&op| self.chain(op).contains(&id))
            .count()
    }

    /// The port on memory `id` used when `op`'s data moves in the given
    /// direction, together with its bandwidth in bits/cycle.
    ///
    /// # Panics
    ///
    /// Panics if no port is assigned; [`HierarchyBuilder::build`] rejects
    /// hierarchies with missing assignments, so ids obtained from this
    /// hierarchy are always covered.
    pub fn port(&self, id: MemoryId, op: Operand, usage: PortUse) -> (PortId, u64) {
        let slot = op.index() * 2 + matches!(usage, PortUse::WriteIn) as usize;
        let pid = self
            .port_map
            .get(id.0)
            .and_then(|row| row[slot])
            .unwrap_or_else(|| panic!("no port for {} {} {}", self.mem(id).name(), op, usage));
        (pid, self.mem(id).ports()[pid].bw_bits)
    }

    /// Number of memory levels in the deepest operand chain.
    pub fn depth(&self) -> usize {
        Operand::all()
            .map(|op| self.chain(op).len())
            .max()
            .unwrap_or(0)
    }

    /// The top (outermost) memory of `op`'s chain.
    pub fn top(&self, op: Operand) -> MemoryId {
        *self
            .chain(op)
            .last()
            .expect("chains are validated non-empty")
    }
}

/// Builder for [`MemoryHierarchy`].
///
/// # Example
///
/// ```
/// use ulm_arch::{Memory, MemoryKind, MemoryHierarchy, Port};
/// use ulm_workload::Operand;
///
/// let mut b = MemoryHierarchy::builder();
/// let reg = b.add_memory(Memory::new("W-Reg", MemoryKind::RegisterFile, 2048));
/// let gb = b.add_memory(
///     Memory::new("GB", MemoryKind::Sram, 8 * 1024 * 1024)
///         .with_ports(vec![Port::read(128), Port::write(128)]),
/// );
/// b.set_chain(Operand::W, vec![reg, gb]);
/// b.set_chain(Operand::I, vec![gb]);
/// b.set_chain(Operand::O, vec![gb]);
/// let h = b.build()?;
/// assert_eq!(h.chain(Operand::W), &[reg, gb]);
/// # Ok::<(), ulm_arch::ArchError>(())
/// ```
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    mems: Vec<Memory>,
    chain_w: Vec<MemoryId>,
    chain_i: Vec<MemoryId>,
    chain_o: Vec<MemoryId>,
}

impl HierarchyBuilder {
    /// Registers a memory module and returns its id.
    pub fn add_memory(&mut self, mem: Memory) -> MemoryId {
        self.mems.push(mem);
        MemoryId(self.mems.len() - 1)
    }

    /// Sets the full memory chain of `op`, innermost first.
    pub fn set_chain(&mut self, op: Operand, chain: Vec<MemoryId>) -> &mut Self {
        match op {
            Operand::W => self.chain_w = chain,
            Operand::I => self.chain_i = chain,
            Operand::O => self.chain_o = chain,
        }
        self
    }

    /// Validates and finalizes the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns an [`ArchError`] when a chain is empty, references unknown
    /// or duplicate memories, or some required access has no usable port.
    pub fn build(&mut self) -> Result<MemoryHierarchy, ArchError> {
        let chains = PerOperand::new(
            self.chain_w.clone(),
            self.chain_i.clone(),
            self.chain_o.clone(),
        );
        // Chain validation.
        for (op, chain) in chains.iter() {
            if chain.is_empty() {
                return Err(ArchError::EmptyChain { operand: op });
            }
            for (i, id) in chain.iter().enumerate() {
                if id.0 >= self.mems.len() {
                    return Err(ArchError::UnknownMemory { index: id.0 });
                }
                if chain[..i].contains(id) {
                    return Err(ArchError::DuplicateInChain {
                        memory: self.mems[id.0].name().to_string(),
                    });
                }
            }
        }
        // Port map: the default port of every (memory, operand, direction)
        // the chains can exercise.
        let mut port_map: Vec<[Option<PortId>; 6]> = vec![[None; 6]; self.mems.len()];
        for (op, chain) in chains.iter() {
            for id in chain {
                let mem = &self.mems[id.0];
                for usage in [PortUse::ReadOut, PortUse::WriteIn] {
                    let pid = mem.default_port(usage).ok_or(ArchError::MissingPort {
                        memory: mem.name().to_string(),
                        operand: op,
                    })?;
                    let dir = matches!(usage, PortUse::WriteIn) as usize;
                    port_map[id.0][op.index() * 2 + dir] = Some(pid);
                }
            }
        }
        Ok(MemoryHierarchy {
            mems: self.mems.clone(),
            chains,
            port_map,
        })
    }
}

/// A complete accelerator: MAC array + memory hierarchy + the Step-3 stall
/// integration policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Architecture {
    name: String,
    mac_array: MacArray,
    hierarchy: MemoryHierarchy,
    stall_integration: StallIntegration,
}

impl Architecture {
    /// Assembles an architecture with the default (fully concurrent)
    /// stall-integration policy.
    pub fn new(name: impl Into<String>, mac_array: MacArray, hierarchy: MemoryHierarchy) -> Self {
        Self {
            name: name.into(),
            mac_array,
            hierarchy,
            stall_integration: StallIntegration::default(),
        }
    }

    /// Sets the Step-3 stall integration policy.
    pub fn with_stall_integration(mut self, policy: StallIntegration) -> Self {
        self.stall_integration = policy;
        self
    }

    /// Architecture name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The MAC array.
    pub fn mac_array(&self) -> &MacArray {
        &self.mac_array
    }

    /// The memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy for in-place knob overrides (see
    /// [`MemoryHierarchy::mem_mut`]).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// The stall-integration policy.
    pub fn stall_integration(&self) -> &StallIntegration {
        &self.stall_integration
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.mac_array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemoryKind, Port, PortUse};

    fn simple() -> (MemoryHierarchy, MemoryId, MemoryId) {
        let mut b = MemoryHierarchy::builder();
        let reg = b.add_memory(Memory::new("reg", MemoryKind::RegisterFile, 64));
        let gb = b.add_memory(
            Memory::new("gb", MemoryKind::Sram, 1 << 20)
                .with_ports(vec![Port::read(128), Port::write(64)]),
        );
        b.set_chain(Operand::W, vec![reg, gb]);
        b.set_chain(Operand::I, vec![gb]);
        b.set_chain(Operand::O, vec![gb]);
        (b.build().unwrap(), reg, gb)
    }

    #[test]
    fn chains_and_lookup() {
        let (h, reg, gb) = simple();
        assert_eq!(h.chain(Operand::W), &[reg, gb]);
        assert_eq!(h.top(Operand::W), gb);
        assert_eq!(h.find("gb"), Some(gb));
        assert_eq!(h.find("nope"), None);
        assert_eq!(h.depth(), 2);
        assert_eq!(h.served_operands(gb).len(), 3);
        assert_eq!(h.served_operands(reg), vec![Operand::W]);
    }

    #[test]
    fn default_ports_resolved_by_direction() {
        let (h, _, gb) = simple();
        let (rp, rbw) = h.port(gb, Operand::I, PortUse::ReadOut);
        let (wp, wbw) = h.port(gb, Operand::O, PortUse::WriteIn);
        assert_ne!(rp, wp);
        assert_eq!(rbw, 128);
        assert_eq!(wbw, 64);
    }

    #[test]
    fn shared_port_resolution_on_single_port_memory() {
        let (h, reg, _) = simple();
        let (rp, _) = h.port(reg, Operand::W, PortUse::ReadOut);
        let (wp, _) = h.port(reg, Operand::W, PortUse::WriteIn);
        assert_eq!(rp, wp); // one RW port serves both directions
    }

    #[test]
    fn empty_chain_rejected() {
        let mut b = MemoryHierarchy::builder();
        let gb = b.add_memory(Memory::new("gb", MemoryKind::Sram, 1024));
        b.set_chain(Operand::W, vec![gb]);
        b.set_chain(Operand::I, vec![gb]);
        // O chain left empty.
        assert!(matches!(
            b.build(),
            Err(ArchError::EmptyChain {
                operand: Operand::O
            })
        ));
    }

    #[test]
    fn duplicate_in_chain_rejected() {
        let mut b = MemoryHierarchy::builder();
        let gb = b.add_memory(Memory::new("gb", MemoryKind::Sram, 1024));
        b.set_chain(Operand::W, vec![gb, gb]);
        b.set_chain(Operand::I, vec![gb]);
        b.set_chain(Operand::O, vec![gb]);
        assert!(matches!(b.build(), Err(ArchError::DuplicateInChain { .. })));
    }

    #[test]
    fn missing_port_rejected() {
        let mut b = MemoryHierarchy::builder();
        // Read-only memory cannot take O write-backs.
        let gb =
            b.add_memory(Memory::new("gb", MemoryKind::Sram, 1024).with_ports(vec![Port::read(8)]));
        b.set_chain(Operand::W, vec![gb]);
        b.set_chain(Operand::I, vec![gb]);
        b.set_chain(Operand::O, vec![gb]);
        assert!(matches!(b.build(), Err(ArchError::MissingPort { .. })));
    }

    #[test]
    fn architecture_serde_round_trip() {
        let (h, _, _) = simple();
        let a = Architecture::new("rt", MacArray::square(16), h)
            .with_stall_integration(StallIntegration::Groups(vec![vec![MemoryId(0)]]));
        let json = serde_json::to_string(&a).expect("serializes");
        let back: Architecture = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(a, back);
        // Ports and chains survive the trip.
        assert_eq!(
            back.hierarchy()
                .port(MemoryId(1), Operand::I, PortUse::ReadOut),
            a.hierarchy()
                .port(MemoryId(1), Operand::I, PortUse::ReadOut)
        );
    }

    #[test]
    fn architecture_accessors() {
        let (h, _, _) = simple();
        let a = Architecture::new("t", MacArray::square(16), h)
            .with_stall_integration(StallIntegration::Sequential);
        assert_eq!(a.name(), "t");
        assert_eq!(a.mac_array().num_macs(), 256);
        assert_eq!(*a.stall_integration(), StallIntegration::Sequential);
    }
}
