//! The registry's unit tests: idempotent registration, cell blocks,
//! kind checks and registration order.

use super::*;
use crate::defs;
use std::collections::BTreeSet;

fn register(
    reg: &mut MetricsRegistry,
    cells: &Cells,
    def: &'static MetricDef,
    node: u8,
) -> u32 {
    reg.register(cells, def, node, def.kind)
}

#[test]
fn registration_is_idempotent() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    let a = register(&mut reg, &cells, &defs::MAC_INSERTED, 3);
    let b = register(&mut reg, &cells, &defs::MAC_INSERTED, 3);
    let c = register(&mut reg, &cells, &defs::MAC_INSERTED, 4);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(reg.instruments.len(), 2);
    assert_eq!(reg.registered_defs().len(), 1);
}

#[test]
fn a_histogram_owns_a_block_and_a_scalar_one_cell() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    let c = register(&mut reg, &cells, &defs::MAC_INSERTED, 0);
    let h = register(&mut reg, &cells, &defs::RING_TOUR_NS, GLOBAL);
    let g = register(&mut reg, &cells, &defs::MAC_WOULD_DROP, 0);
    assert_eq!((c, h, g), (0, 1, 1 + HIST_CELLS as u32));
}

#[test]
#[cfg(not(debug_assertions))]
fn a_handle_of_the_wrong_kind_is_inert() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    let cell = reg.register(&cells, &defs::MAC_INSERTED, 0, MetricKind::Histogram);
    assert_eq!(cell, u32::MAX);
    assert!(reg.snapshot(&cells).entries.is_empty());
}

#[test]
fn snapshot_orders_by_registration() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    register(&mut reg, &cells, &defs::MAC_STRIPPED, 1);
    register(&mut reg, &cells, &defs::MAC_WOULD_DROP, 1);
    register(&mut reg, &cells, &defs::RING_TOUR_NS, GLOBAL);
    let snap = reg.snapshot(&cells);
    let names: Vec<_> = snap.entries.iter().map(|e| e.def.name).collect();
    assert_eq!(
        names,
        ["mac_stripped", "mac_would_drop", "ring_tour_ns"]
    );
    assert_eq!(snap.entries[0].node, Some(1));
    assert_eq!(snap.entries[2].node, None);
}

#[test]
fn every_def_registers_once_per_node() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    let nodes = [GLOBAL, 0, 7];
    let register_all = |reg: &mut MetricsRegistry| -> Vec<u32> {
        nodes
            .iter()
            .flat_map(|&node| defs::ALL.iter().map(move |&def| (def, node)))
            .map(|(def, node)| register(reg, &cells, def, node))
            .collect()
    };
    let first = register_all(&mut reg);
    let again = register_all(&mut reg);
    assert_eq!(first, again, "a second registration hands back the same cells");
    let distinct: BTreeSet<u32> = first.iter().copied().collect();
    assert_eq!(distinct.len(), nodes.len() * defs::ALL.len());
    assert_eq!(reg.instruments.len(), first.len());
    let names: Vec<_> = reg.registered_defs().iter().map(|d| d.name).collect();
    let catalog: Vec<_> = defs::ALL.iter().map(|d| d.name).collect();
    assert_eq!(names, catalog);
}

#[test]
fn snapshot_lists_every_def_in_registration_order() {
    let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
    // Reversed and node-interleaved, so neither catalog, name nor
    // address order can pass for registration order.
    let order: Vec<(&'static MetricDef, u8)> = defs::ALL
        .iter()
        .rev()
        .enumerate()
        .map(|(i, &def)| (def, if i % 2 == 0 { GLOBAL } else { (i % 5) as u8 }))
        .collect();
    for &(def, node) in &order {
        register(&mut reg, &cells, def, node);
    }
    for &(def, node) in order.iter().rev() {
        register(&mut reg, &cells, def, node);
    }
    let listed: Vec<_> = reg
        .snapshot(&cells)
        .entries
        .iter()
        .map(|e| (e.def.name, e.node.unwrap_or(GLOBAL)))
        .collect();
    let registered: Vec<_> = order.iter().map(|&(def, node)| (def.name, node)).collect();
    assert_eq!(listed, registered);
}
