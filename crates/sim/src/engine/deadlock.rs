//! Deadlock diagnosis: the wait-for graph over blocked channels, and the
//! one cycle in it that explains the stall.

use super::{out_edges, Engine};
use crate::error::{BufferSuggestion, ChannelState, DeadlockReport, StuckTile, WaitEdge};
use muir_core::compiled::{UopKind, SLOT_ARG, SLOT_CONST, SLOT_FEEDBACK, SLOT_PAYLOAD, SLOT_TAG};
use std::collections::HashMap;

impl Engine<'_> {
    /// Walk the blocked-channel wait-for graph and diagnose the stall.
    ///
    /// Every node that still has instances to fire contributes wait-for
    /// edges: an *empty* input channel makes it wait on its producer; a
    /// *full* output channel makes it wait on its consumer. A cycle over
    /// these edges is the deadlock's root cause; if one of the cycle's
    /// channels is full, growing that buffer breaks the cycle, and the
    /// report says exactly which edge and to what depth.
    pub(super) fn diagnose_deadlock(&self) -> DeadlockReport {
        let cycle = self.cycle;
        let mut vertices: Vec<V> = Vec::new();
        let mut waits: HashMap<V, Vec<W>> = HashMap::new();
        let mut report = DeadlockReport {
            mem_outstanding: self.reqs.iter().flatten().count() as u32,
            stuck_nodes: {
                let mut sn: Vec<(u32, u32)> = self
                    .stuck
                    .iter()
                    .map(|&(ti, _, n)| (ti as u32, n as u32))
                    .collect();
                sn.sort_unstable();
                sn.dedup();
                sn
            },
            ..DeadlockReport::default()
        };
        for (ti, t) in self.tasks.iter().enumerate() {
            let task = &self.acc.tasks[ti];
            let df = &task.dataflow;
            let et = &self.elab[ti];
            let ct = et.ct;
            if !t.queue.is_empty() {
                report.queued.push((ti as u32, t.queue.len()));
            }
            for (tk, tile) in t.tiles.iter().enumerate() {
                let Some(inv) = tile else { continue };
                report.stuck_tiles.push(StuckTile {
                    task: ti as u32,
                    task_name: task.name.clone(),
                    tile: tk as u32,
                    trip: inv.trip,
                    admitted: inv.admitted,
                    completed: inv.completed,
                    spawns_outstanding: inv.spawns_outstanding,
                });
                for (node, uop) in ct.uops.iter().enumerate() {
                    if uop.kind == UopKind::Static || self.stuck.contains(&(ti, tk, node)) {
                        continue;
                    }
                    let k = inv.nodes[node].fired;
                    if k >= inv.admitted {
                        continue; // waiting for admission, not a channel
                    }
                    // `node` waits on node `on` through channel `ei`.
                    let wait = |ei: usize, on: u32, state: ChannelState| W {
                        to: (ti, tk, on as usize),
                        edge: WaitEdge {
                            task: ti as u32,
                            task_name: task.name.clone(),
                            edge: ei as u32,
                            src: node as u32,
                            src_name: df.nodes[node].name.to_string(),
                            dst: on,
                            dst_name: df.nodes[on as usize].name.to_string(),
                            capacity: et.cap[ei],
                            state,
                        },
                    };
                    // Empty input channels: waiting on the producer. The
                    // edges are the input gate's, in its order — token
                    // slots by port, then the dynamic order-in edges.
                    let slots = &ct.in_slots[uop.slot0 as usize..][..uop.nin as usize];
                    let tokens = slots.iter().filter_map(|&s| match s & SLOT_TAG {
                        SLOT_ARG | SLOT_CONST => None,
                        SLOT_FEEDBACK if k == 0 => None,
                        _ => Some(s & SLOT_PAYLOAD),
                    });
                    let order_in = &ct.edge_refs[uop.ebase as usize..][..uop.nord as usize];
                    let mut out: Vec<W> = Vec::new();
                    for ei in tokens.chain(order_in.iter().copied()) {
                        let ei = ei as usize;
                        if inv.arena.front(ei).is_none_or(|(_, vis)| vis > cycle) {
                            out.push(wait(ei, ct.edge_meta[ei].src, ChannelState::Empty));
                        }
                    }
                    // Full output channels: waiting on the consumer.
                    for &ei in out_edges(&ct, uop) {
                        let ei = ei as usize;
                        if inv.arena.full(ei, et.cap[ei], cycle) {
                            out.push(wait(ei, df.edges[ei].dst.0, ChannelState::Full));
                        }
                    }
                    if !out.is_empty() {
                        let me: V = (ti, tk, node);
                        vertices.push(me);
                        waits.insert(me, out);
                    }
                }
            }
        }
        report.wait_cycle = find_wait_cycle(&vertices, &waits);
        report.suggestion = report
            .wait_cycle
            .iter()
            .filter(|w| w.state == ChannelState::Full)
            .min_by_key(|w| w.capacity)
            .map(|w| BufferSuggestion {
                task: w.task,
                edge: w.edge,
                depth: w.capacity + 1,
            });
        report
    }
}

/// A wait-for-graph vertex: (task, tile, node).
type V = (usize, usize, usize);

/// One wait-for edge: the owning vertex waits on `to` through `edge`.
struct W {
    to: V,
    edge: WaitEdge,
}

/// Find one cycle in the wait-for graph (iterative DFS with an explicit
/// path stack) and return its wait edges in wait-for order. Empty if the
/// stall has no channel cycle (e.g. progress is blocked on memory).
fn find_wait_cycle(vertices: &[V], waits: &HashMap<V, Vec<W>>) -> Vec<WaitEdge> {
    // 0 = unvisited, 1 = on the current path, 2 = finished.
    let mut color: HashMap<V, u8> = HashMap::new();
    for &start in vertices {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Each entry: (vertex, next out-edge index, wait edge that led here).
        let mut path: Vec<(V, usize, Option<WaitEdge>)> = vec![(start, 0, None)];
        color.insert(start, 1);
        while let Some(&(v, i, _)) = path.last() {
            let Some(w) = waits.get(&v).and_then(|o| o.get(i)) else {
                color.insert(v, 2);
                path.pop();
                continue;
            };
            if let Some(top) = path.last_mut() {
                top.1 += 1;
            }
            match color.get(&w.to).copied().unwrap_or(0) {
                1 => {
                    // Back edge: the cycle runs from `w.to` along the path
                    // back to `v`, closed by this edge.
                    let p = path.iter().position(|e| e.0 == w.to).unwrap_or(0);
                    let mut cycle: Vec<WaitEdge> =
                        path[p + 1..].iter().filter_map(|e| e.2.clone()).collect();
                    cycle.push(w.edge.clone());
                    return cycle;
                }
                2 => {}
                _ => {
                    color.insert(w.to, 1);
                    path.push((w.to, 0, Some(w.edge.clone())));
                }
            }
        }
    }
    Vec::new()
}
