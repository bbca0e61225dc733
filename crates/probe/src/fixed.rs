//! Fixed-interval probing for the §6.1 calibration experiments.
//!
//! Figures 7 and 8 use "a modified version of BADABING to generate probes
//! at fixed intervals of 10 milliseconds so that some number of probes
//! would encounter all loss episodes", with probe sizes swept from 1 to 10
//! packets. [`FixedIntervalProber`] is that sender; it reuses
//! [`crate::badabing::BadabingReceiver`] on the far side (each probe is
//! tagged as its own "experiment").

use crate::badabing::BadabingReceiver;
use badabing_core::analysis::{ProbeArrival, SentProbe};
use badabing_sim::monitor::LossEpisode;
use badabing_sim::node::{Context, Node, NodeId};
use badabing_sim::packet::{FlowId, Packet, PacketKind};
use badabing_sim::time::SimDuration;
use std::any::Any;
use std::collections::HashMap;

const TOKEN_SEND: u64 = 0;

/// Sends a probe of `n_packets` every `interval`.
pub struct FixedIntervalProber {
    interval: SimDuration,
    n_packets: u8,
    packet_bytes: u32,
    intra_gap: SimDuration,
    flow: FlowId,
    bottleneck: NodeId,
    ingress_delay: SimDuration,
    sent: Vec<SentProbe>,
    seq: u64,
}

impl FixedIntervalProber {
    /// Create a fixed-interval prober.
    ///
    /// # Panics
    /// Panics if `n_packets` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        interval: SimDuration,
        n_packets: u8,
        packet_bytes: u32,
        intra_gap: SimDuration,
        flow: FlowId,
        bottleneck: NodeId,
        ingress_delay: SimDuration,
    ) -> Self {
        assert!(n_packets > 0, "a probe needs at least one packet");
        Self {
            interval,
            n_packets,
            packet_bytes,
            intra_gap,
            flow,
            bottleneck,
            ingress_delay,
            sent: Vec::new(),
            seq: 0,
        }
    }

    /// The paper's calibration setup: 10 ms interval, 600-byte packets,
    /// 30 µs intra-probe gap.
    pub fn paper_calibration(
        n_packets: u8,
        flow: FlowId,
        bottleneck: NodeId,
        ingress_delay: SimDuration,
    ) -> Self {
        Self::new(
            SimDuration::from_millis(10),
            n_packets,
            600,
            SimDuration::from_micros(30),
            flow,
            bottleneck,
            ingress_delay,
        )
    }

    /// Sender-side log.
    pub fn sent(&self) -> &[SentProbe] {
        &self.sent
    }
}

impl Node for FixedIntervalProber {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, TOKEN_SEND);
    }

    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        let probe_id = self.sent.len() as u64;
        for idx in 0..self.n_packets {
            let extra = self.intra_gap.mul(u64::from(idx));
            let pkt = Packet {
                id: ctx.next_packet_id(),
                flow: self.flow,
                size: self.packet_bytes,
                created: ctx.now() + extra,
                kind: PacketKind::Probe {
                    experiment: probe_id,
                    slot: probe_id,
                    idx,
                    probe_len: self.n_packets,
                    seq: self.seq,
                },
            };
            self.seq += 1;
            ctx.send(self.bottleneck, pkt, self.ingress_delay + extra);
        }
        self.sent.push(SentProbe {
            experiment: probe_id,
            slot: probe_id,
            send_time_secs: ctx.now().as_secs_f64(),
            packets: self.n_packets,
        });
        ctx.set_timer(self.interval, TOKEN_SEND);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Figure-7 statistics: how reliably do `N`-packet probes report loss
/// episodes they pass through?
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeEpisodeStats {
    /// Probes whose send time fell inside a ground-truth loss episode.
    pub probes_in_episodes: u64,
    /// Of those, probes that lost no packet (the false negatives of
    /// loss-only detection — Figure 7's y-axis).
    pub probes_without_loss: u64,
    /// Episodes that at least one probe (by send time) fell into.
    pub episodes_probed: u64,
    /// Total episodes in the ground truth.
    pub episodes_total: u64,
}

impl ProbeEpisodeStats {
    /// Join the sender log and arrival records against ground-truth
    /// episodes.
    pub fn compute(
        sent: &[SentProbe],
        arrivals: &HashMap<(u64, u64), ProbeArrival>,
        episodes: &[LossEpisode],
    ) -> Self {
        let mut stats = ProbeEpisodeStats {
            episodes_total: episodes.len() as u64,
            ..Default::default()
        };
        let mut probed = vec![false; episodes.len()];
        // Both lists are time-sorted; sweep with a cursor.
        let mut cursor = 0usize;
        for s in sent {
            let t = s.send_time_secs;
            while cursor < episodes.len() && episodes[cursor].end.as_secs_f64() < t {
                cursor += 1;
            }
            let Some(ep) = episodes.get(cursor) else {
                break;
            };
            if t < ep.start.as_secs_f64() {
                continue;
            }
            stats.probes_in_episodes += 1;
            probed[cursor] = true;
            let received = arrivals
                .get(&(s.experiment, s.slot))
                .map_or(0, |r| r.received);
            if received >= s.packets {
                stats.probes_without_loss += 1;
            }
        }
        stats.episodes_probed = probed.iter().filter(|&&b| b).count() as u64;
        stats
    }

    /// Empirical `P(probe sees no loss | probe inside a loss episode)` —
    /// Figure 7's y-axis. `None` when no probe fell inside an episode.
    pub fn p_no_loss(&self) -> Option<f64> {
        if self.probes_in_episodes == 0 {
            None
        } else {
            Some(self.probes_without_loss as f64 / self.probes_in_episodes as f64)
        }
    }
}

/// Attach a fixed-interval prober and a receiver to a dumbbell. Returns
/// `(prober_id, receiver_id)`.
pub fn attach_fixed(
    db: &mut badabing_sim::topology::Dumbbell,
    n_packets: u8,
    flow: FlowId,
) -> (NodeId, NodeId) {
    let receiver = db.add_node(Box::new(BadabingReceiver::new()));
    db.route_flow(flow, receiver);
    let bottleneck = db.bottleneck();
    let ingress = db.ingress_delay();
    let prober = db.add_node(Box::new(FixedIntervalProber::paper_calibration(
        n_packets, flow, bottleneck, ingress,
    )));
    (prober, receiver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use badabing_sim::time::SimTime;
    use badabing_sim::topology::Dumbbell;
    use badabing_stats::rng::seeded;
    use badabing_traffic::cbr::{attach_cbr, CbrEpisodeConfig};

    #[test]
    fn sends_at_fixed_cadence() {
        let mut db = Dumbbell::standard();
        let (prober, receiver) = attach_fixed(&mut db, 3, FlowId(900));
        db.run_for(1.0);
        let sent = db.sim.node::<FixedIntervalProber>(prober).sent();
        assert_eq!(
            sent.len(),
            100,
            "one probe per 10 ms starting at t=10ms, inclusive of t=1.0s"
        );
        for (i, s) in sent.iter().enumerate() {
            assert!((s.send_time_secs - 0.01 * (i + 1) as f64).abs() < 1e-9);
        }
        db.run_for(2.0);
        let arr = db.sim.node::<BadabingReceiver>(receiver).arrivals();
        assert!(arr.len() >= 99);
        assert!(arr.values().all(|r| r.received == 3));
    }

    #[test]
    fn bigger_probes_miss_fewer_episodes() {
        // Figure 7's headline effect on CBR traffic: single-packet probes
        // often survive a loss episode; 5-packet probes rarely do.
        let run = |n_packets: u8| -> f64 {
            let mut db = Dumbbell::standard();
            let cbr = CbrEpisodeConfig {
                mean_gap_secs: 3.0,
                ..CbrEpisodeConfig::paper_default()
            };
            attach_cbr(&mut db, FlowId(1), cbr, seeded(77, "cbr"));
            let (prober, receiver) = attach_fixed(&mut db, n_packets, FlowId(900));
            db.run_for(121.0);
            let gt = db.ground_truth(120.0);
            let sent = db.sim.node::<FixedIntervalProber>(prober).sent();
            let arr = db.sim.node::<BadabingReceiver>(receiver).arrivals();
            let stats = ProbeEpisodeStats::compute(sent, arr, &gt.episodes);
            assert!(
                stats.probes_in_episodes > 50,
                "n={n_packets}: too few probes in episodes"
            );
            stats.p_no_loss().expect("probes fell in episodes")
        };
        let p1 = run(1);
        let p5 = run(5);
        assert!(
            p1 > p5,
            "1-packet probes ({p1}) should miss more than 5-packet ({p5})"
        );
        assert!(
            p5 < 0.5,
            "5-packet probes should usually see loss, got {p5}"
        );
    }

    #[test]
    fn episode_stats_on_synthetic_data() {
        let episodes = vec![
            LossEpisode {
                start: SimTime::from_secs_f64(1.0),
                end: SimTime::from_secs_f64(1.1),
                drops: 10,
            },
            LossEpisode {
                start: SimTime::from_secs_f64(5.0),
                end: SimTime::from_secs_f64(5.05),
                drops: 4,
            },
        ];
        let sent = vec![
            SentProbe {
                experiment: 0,
                slot: 0,
                send_time_secs: 0.5,
                packets: 3,
            },
            SentProbe {
                experiment: 1,
                slot: 1,
                send_time_secs: 1.05,
                packets: 3,
            },
            SentProbe {
                experiment: 2,
                slot: 2,
                send_time_secs: 1.08,
                packets: 3,
            },
            SentProbe {
                experiment: 3,
                slot: 3,
                send_time_secs: 3.0,
                packets: 3,
            },
        ];
        let mut arrivals = HashMap::new();
        // Probe 1 loses a packet; probe 2 survives.
        arrivals.insert(
            (1u64, 1u64),
            ProbeArrival {
                received: 2,
                owd_last_secs: 0.15,
                owd_max_secs: 0.15,
            },
        );
        arrivals.insert(
            (2u64, 2u64),
            ProbeArrival {
                received: 3,
                owd_last_secs: 0.15,
                owd_max_secs: 0.15,
            },
        );
        let stats = ProbeEpisodeStats::compute(&sent, &arrivals, &episodes);
        assert_eq!(stats.probes_in_episodes, 2);
        assert_eq!(stats.probes_without_loss, 1);
        assert_eq!(stats.episodes_probed, 1);
        assert_eq!(stats.episodes_total, 2);
        assert!((stats.p_no_loss().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_none() {
        let stats = ProbeEpisodeStats::compute(&[], &HashMap::new(), &[]);
        assert_eq!(stats.p_no_loss(), None);
    }
}
