"""MachineConfig encodes Table 1 of the paper; validation rejects nonsense."""

import dataclasses

import pytest

from repro import ConfigError, EnergyConfig, LeaseConfig, MachineConfig, \
    NetworkConfig


class TestTable1Defaults:
    """The defaults must match the paper's system configuration table."""

    def test_core_clock_is_1ghz(self):
        assert MachineConfig().clock_hz == 1_000_000_000

    def test_l1_is_32kb_4way_1cycle(self):
        cfg = MachineConfig()
        assert cfg.l1_size_bytes == 32 * 1024
        assert cfg.l1_assoc == 4
        assert cfg.l1_latency == 1

    def test_l2_is_256kb_8way_tag3_data8(self):
        cfg = MachineConfig()
        assert cfg.l2_size_bytes_per_tile == 256 * 1024
        assert cfg.l2_assoc == 8
        assert cfg.l2_tag_latency == 3
        assert cfg.l2_data_latency == 8

    def test_line_size_64_bytes(self):
        assert MachineConfig().line_size == 64

    def test_max_lease_time_20k_cycles(self):
        # 20K cycles == 20 microseconds at 1 GHz (Section 7).
        assert LeaseConfig().max_lease_time == 20_000

    def test_l1_num_sets(self):
        # 32 KB / (64 B x 4 ways) = 128 sets.
        assert MachineConfig().l1_num_sets == 128


class TestValidation:
    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_cores=0)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(line_size=48)

    def test_tiny_line_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(line_size=4)

    def test_negative_lease_time_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(lease=LeaseConfig(max_lease_time=-1))

    def test_zero_max_leases_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(lease=LeaseConfig(max_num_leases=0))

    def test_bad_multilease_mode_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(lease=LeaseConfig(multilease_mode="quantum"))

    def test_negative_network_latency_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(network=NetworkConfig(hop_latency=-1))

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(energy=EnergyConfig(message_nj=-0.1))

    def test_l1_geometry_must_divide(self):
        with pytest.raises(ConfigError):
            MachineConfig(l1_size_bytes=1000)


class TestDerived:
    def test_mesh_dim_squares(self):
        assert MachineConfig(num_cores=1).mesh_dim == 1
        assert MachineConfig(num_cores=4).mesh_dim == 2
        assert MachineConfig(num_cores=9).mesh_dim == 3
        assert MachineConfig(num_cores=16).mesh_dim == 4
        assert MachineConfig(num_cores=64).mesh_dim == 8

    def test_mesh_dim_non_squares_round_up(self):
        assert MachineConfig(num_cores=5).mesh_dim == 3
        assert MachineConfig(num_cores=33).mesh_dim == 6

    def test_with_leases_toggles_only_lease_flag(self):
        cfg = MachineConfig(num_cores=8)
        off = cfg.with_leases(False)
        assert not off.lease.enabled
        assert off.num_cores == 8
        assert off.lease.max_lease_time == cfg.lease.max_lease_time

    def test_with_cores(self):
        assert MachineConfig().with_cores(32).num_cores == 32

    def test_with_scenario_sets_only_its_own_fields(self):
        cfg = MachineConfig(num_cores=4, seed=3)
        assert cfg.with_scenario() == cfg
        assert cfg.with_scenario(seed=9) == dataclasses.replace(cfg, seed=9)
        assert cfg.with_scenario(fault_spec="dir_nack:p=0.1") == \
            dataclasses.replace(cfg, fault_spec="dir_nack:p=0.1")
        assert cfg.with_scenario(network="link:bw=2") == dataclasses.replace(
            cfg, network=dataclasses.replace(cfg.network, spec="link:bw=2"))
        both = cfg.with_scenario(seed=9, network="link:bw=2")
        assert both == cfg.with_scenario(seed=9).with_scenario(
            network="link:bw=2")
        assert both.fault_spec == cfg.fault_spec

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MachineConfig().num_cores = 2
