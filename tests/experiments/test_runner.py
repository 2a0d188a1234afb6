"""Experiment plumbing: cluster assembly, population, table rendering."""

import pytest

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.random_replication import RandomReplication
from repro.erasure.codec import CodeParams
from repro.experiments.runner import (
    build_cluster,
    format_table,
    make_policy,
    mean,
    populate_blocks,
    populate_until_sealed,
)
from repro.core.policy import ReplicationScheme


TOPO = ClusterTopology(nodes_per_rack=4, num_racks=8)
CODE = CodeParams(6, 4)
SCHEME = ReplicationScheme(3, 2)


class TestMakePolicy:
    def test_rr(self, rng):
        policy = make_policy("rr", TOPO, CODE, SCHEME, rng)
        assert isinstance(policy, RandomReplication)
        assert policy.store.k == CODE.k

    def test_ear(self, rng):
        policy = make_policy("ear", TOPO, CODE, SCHEME, rng)
        assert isinstance(policy, EncodingAwareReplication)

    def test_ear_parameters_forwarded(self, rng):
        policy = make_policy(
            "ear", TOPO, CODE, SCHEME, rng, ear_c=2, ear_target_racks=3
        )
        assert policy.c == 2
        assert policy.num_target_racks == 3

    def test_unknown_policy(self, rng):
        with pytest.raises(ValueError):
            make_policy("raid0", TOPO, CODE, SCHEME, rng)


class TestBuildCluster:
    def test_components_wired(self):
        setup = build_cluster("ear", TOPO, CODE, SCHEME, seed=1)
        assert setup.namenode.policy is setup.policy
        assert setup.client.namenode is setup.namenode
        assert setup.encoder.namenode is setup.namenode
        assert setup.network.topology is TOPO
        assert setup.client.stats is setup.write_stats

    def test_seed_determinism(self):
        a = build_cluster("rr", TOPO, CODE, SCHEME, seed=5)
        b = build_cluster("rr", TOPO, CODE, SCHEME, seed=5)
        da = [a.namenode.allocate_block()[1].node_ids for __ in range(20)]
        db = [b.namenode.allocate_block()[1].node_ids for __ in range(20)]
        assert da == db


class TestPopulation:
    def test_populate_blocks(self):
        setup = build_cluster("rr", TOPO, CODE, SCHEME, seed=2)
        populate_blocks(setup, 40)
        assert len(setup.namenode.block_store) == 40
        assert setup.sim.now == 0.0  # no simulated traffic

    def test_populate_until_sealed(self):
        setup = build_cluster("ear", TOPO, CODE, SCHEME, seed=3)
        populate_until_sealed(setup, 5)
        assert len(setup.namenode.sealed_stripes()) >= 5

    @staticmethod
    def _rescanning_populate(setup, num_stripes):
        """Reference: re-count the sealed stripes after every block."""
        writers = list(setup.topology.node_ids())
        store = setup.namenode.pre_encoding_store
        while len(store.sealed_stripes()) < num_stripes:
            setup.namenode.allocate_block(writer_node=setup.rng.choice(writers))

    @pytest.mark.parametrize("policy", ["rr", "ear", "recovery"])
    def test_seal_count_matches_rescan(self, policy):
        counted = build_cluster(policy, TOPO, CODE, SCHEME, seed=4)
        rescanned = build_cluster(policy, TOPO, CODE, SCHEME, seed=4)
        # The second call starts from stripes sealed by the first.
        for target in (3, 3, 9):
            populate_until_sealed(counted, target)
            self._rescanning_populate(rescanned, target)
            sealed = counted.namenode.sealed_stripes()
            assert len(sealed) == target
            assert [s.stripe_id for s in sealed] == [
                s.stripe_id for s in rescanned.namenode.sealed_stripes()
            ]
            assert len(counted.namenode.block_store) == len(
                rescanned.namenode.block_store
            )
            assert counted.rng.getstate() == rescanned.rng.getstate()
            assert (counted.policy.rng.getstate()
                    == rescanned.policy.rng.getstate())

    def test_populate_requires_store(self):
        policy = RandomReplication(TOPO)  # no pre-encoding store
        from repro.hdfs.namenode import NameNode

        setup = build_cluster("rr", TOPO, CODE, SCHEME, seed=1)
        setup.namenode.policy = policy
        with pytest.raises(ValueError):
            populate_until_sealed(setup, 1)


class TestHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]
        assert "-" in lines[1]
        assert "30" in lines[3]
