//! The HDFS write pipeline: a client streams a block through a chain of
//! data nodes (client → r1 → r2 → r3), each forwarding packets downstream
//! while writing to its own disk. Steady-state throughput is the minimum
//! rate along the chain; every cross-rack hop pays the fabric
//! oversubscription tax.
//!
//! Standalone: nothing in the workspace calls it. The MapReduce engine
//! times reduce-output writes with its own analytic formula
//! (`reduce_duration`), not with this module; this is the timing model a
//! future ingest-phase simulation would use.

use dare_net::{NodeId, Topology};
use dare_simcore::SimDuration;

/// Steady-state pipeline throughput in MB/s for a chain of `targets`
/// (first element receives from the client co-located with `writer`).
///
/// Rate = min over chain members of `min(disk_write, nic)` with each
/// cross-rack hop's NIC contribution divided by `oversub`. Disk write
/// rates are approximated by the node's read bandwidth (sequential HDFS
/// writes are read-comparable on the paper's hardware).
pub fn pipeline_rate_mbps(
    topo: &Topology,
    writer: Option<NodeId>,
    targets: &[NodeId],
    disk_mbps: &[f64],
    nic_mbps: &[f64],
    oversub: f64,
) -> f64 {
    assert!(!targets.is_empty(), "empty pipeline");
    assert!(oversub >= 1.0);
    let mut rate = f64::INFINITY;
    let mut upstream = writer;
    for &t in targets {
        // Disk write at this member.
        rate = rate.min(disk_mbps[t.idx()]);
        // Network hop from the upstream member (none when the first
        // replica is written by a co-located client).
        match upstream {
            Some(u) if u == t => {} // local short-circuit write
            Some(u) => {
                let mut hop = nic_mbps[u.idx()].min(nic_mbps[t.idx()]);
                if topo.crosses_racks(u, t) {
                    hop /= oversub;
                }
                rate = rate.min(hop);
            }
            None => {} // external ingest client: assume fat pipe to r1
        }
        upstream = Some(t);
    }
    rate
}

/// Duration to write `bytes` through the pipeline.
pub fn write_duration(
    topo: &Topology,
    writer: Option<NodeId>,
    targets: &[NodeId],
    bytes: u64,
    disk_mbps: &[f64],
    nic_mbps: &[f64],
    oversub: f64,
) -> SimDuration {
    let rate = pipeline_rate_mbps(topo, writer, targets, disk_mbps, nic_mbps, oversub);
    SimDuration::from_secs_f64(bytes as f64 / (rate * dare_net::MB as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dare_net::MB;

    #[test]
    fn single_local_replica_is_disk_bound() {
        let topo = Topology::single_rack(3);
        let disk = vec![150.0, 100.0, 50.0];
        let nic = vec![120.0; 3];
        let r = pipeline_rate_mbps(&topo, Some(NodeId(0)), &[NodeId(0)], &disk, &nic, 1.0);
        assert!((r - 150.0).abs() < 1e-9, "writer-local: no network hop");
    }

    #[test]
    fn chain_rate_is_the_bottleneck() {
        let topo = Topology::single_rack(3);
        let disk = vec![150.0, 100.0, 160.0];
        let nic = vec![120.0, 80.0, 120.0];
        // 0 -> 1 -> 2: hops min(120,80)=80 and min(80,120)=80; disks 150/100/160.
        let r = pipeline_rate_mbps(
            &topo,
            Some(NodeId(0)),
            &[NodeId(0), NodeId(1), NodeId(2)],
            &disk,
            &nic,
            1.0,
        );
        assert!((r - 80.0).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn cross_rack_hop_pays_oversubscription() {
        // nodes 0,1 in rack 0; node 2 in rack 1
        let topo = Topology::explicit(vec![0, 0, 1], 10);
        let disk = vec![200.0; 3];
        let nic = vec![100.0; 3];
        let same_rack = pipeline_rate_mbps(
            &topo,
            Some(NodeId(0)),
            &[NodeId(0), NodeId(1)],
            &disk,
            &nic,
            2.0,
        );
        let cross_rack = pipeline_rate_mbps(
            &topo,
            Some(NodeId(0)),
            &[NodeId(0), NodeId(2)],
            &disk,
            &nic,
            2.0,
        );
        assert!((same_rack - 100.0).abs() < 1e-9);
        assert!((cross_rack - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ingest_client_skips_first_hop() {
        let topo = Topology::single_rack(2);
        let disk = vec![100.0; 2];
        let nic = vec![10.0; 2]; // terrible NICs
        let r = pipeline_rate_mbps(&topo, None, &[NodeId(0)], &disk, &nic, 1.0);
        assert!((r - 100.0).abs() < 1e-9, "external client: disk-bound");
    }

    #[test]
    fn duration_scales_with_bytes() {
        let topo = Topology::single_rack(2);
        let disk = vec![100.0; 2];
        let nic = vec![100.0; 2];
        let d = write_duration(
            &topo,
            Some(NodeId(0)),
            &[NodeId(0), NodeId(1)],
            100 * MB,
            &disk,
            &nic,
            1.0,
        );
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_pipeline_rejected() {
        let topo = Topology::single_rack(1);
        let _ = pipeline_rate_mbps(&topo, None, &[], &[100.0], &[100.0], 1.0);
    }
}
