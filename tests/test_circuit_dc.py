"""Unit tests for the DC operating-point solver (repro.circuit.dc)."""

import numpy as np
import pytest

import repro.circuit.dc as dc_module
from repro.circuit import Circuit, solve_dc
from repro.circuit.dc import (DC_EFFORT_KEYS, DC_STRATEGIES, GMIN_FACTOR,
                              GMIN_FINAL, GMIN_START, SOURCE_SCALES, _newton,
                              _source_stepping, gmin_schedule)
from repro.circuit.devices import Isource, Vsource
from repro.circuit.linsolve import resolve_backend
from repro.effort import Effort
from repro.errors import ConvergenceError, SingularMatrixError
from repro.pdk.generic035 import NMOS, PMOS


def divider(ratio_top=1e3, ratio_bottom=1e3, vin=2.0):
    c = Circuit("divider")
    c.vsource("V1", "in", "0", dc=vin)
    c.resistor("R1", "in", "out", ratio_top)
    c.resistor("R2", "out", "0", ratio_bottom)
    return c


class TestLinearCircuits:
    def test_resistive_divider(self):
        result = solve_dc(divider())
        assert result.voltage("out") == pytest.approx(1.0, abs=1e-6)

    def test_source_current_direction(self):
        result = solve_dc(divider())
        # 2 V over 2 kOhm: 1 mA flows out of the source's + terminal.
        assert result.source_current("V1") == pytest.approx(-1e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit("isrc")
        c.isource("I1", "0", "n1", dc=1e-3)  # pushes current into n1
        c.resistor("R1", "n1", "0", 1e3)
        result = solve_dc(c)
        assert result.voltage("n1") == pytest.approx(1.0, rel=1e-6)

    def test_vcvs_gain(self):
        c = Circuit("vcvs")
        c.vsource("V1", "a", "0", dc=0.5)
        c.resistor("RL", "b", "0", 1e3)
        c.vcvs("E1", "b", "0", "a", "0", gain=4.0)
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(2.0, rel=1e-9)

    def test_vccs_transconductance(self):
        c = Circuit("vccs")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("RL", "b", "0", 2e3)
        c.vccs("G1", "0", "b", "a", "0", gm=1e-3)  # pushes 1 mA into b
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(2.0, rel=1e-6)

    def test_inductor_is_dc_short(self):
        c = Circuit("lshort")
        c.vsource("V1", "a", "0", dc=1.0)
        c.inductor("L1", "a", "b", 1e-3)
        c.resistor("R1", "b", "0", 1e3)
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(1.0, abs=1e-9)

    def test_capacitor_is_dc_open(self):
        c = Circuit("copen")
        c.vsource("V1", "a", "0", dc=1.0)
        c.resistor("R1", "a", "b", 1e3)
        c.capacitor("C1", "b", "0", 1e-9)
        c.resistor("R2", "b", "0", 1e6)  # define the node
        result = solve_dc(c)
        assert result.voltage("b") == pytest.approx(1.0 * 1e6 / 1.001e6,
                                                    rel=1e-4)


class TestMosCircuits:
    def test_diode_connected_nmos_settles_above_vth(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        result = solve_dc(c)
        vgs = result.voltage("d")
        assert NMOS.vto < vgs < 1.2
        # KCL: resistor current equals drain current.
        i_r = (3.3 - vgs) / 100e3
        assert result.op("M1")["ids"] == pytest.approx(i_r, rel=1e-4)

    def test_current_mirror_ratio(self):
        c = Circuit("mirror")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.isource("IB", "vdd", "g", dc=10e-6)
        c.mosfet("M1", "g", "g", "0", "0", NMOS, w=10e-6, l=2e-6)
        c.mosfet("M2", "d2", "g", "0", "0", NMOS, w=30e-6, l=2e-6)
        c.vsource("VD", "d2", "0", dc=1.0)
        result = solve_dc(c)
        i1 = result.op("M1")["ids"]
        i2 = result.op("M2")["ids"]
        # 3:1 mirror (within channel-length-modulation error).
        assert i2 / i1 == pytest.approx(3.0, rel=0.1)

    def test_pmos_source_follower_level_shift(self):
        c = Circuit("follower")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.vsource("VG", "g", "0", dc=1.0)
        c.isource("IB", "vdd", "s", dc=20e-6)  # bias current into the source
        c.mosfet("M1", "0", "g", "s", "vdd", PMOS, w=40e-6, l=1e-6)
        result = solve_dc(c)
        vs = result.voltage("s")
        assert vs > 1.0 + abs(PMOS.vto) * 0.8  # shifted up by ~|vgs|

    def test_reverse_mode_swaps_source_drain(self):
        """A symmetric device conducts either way; the op record flags it."""
        c = Circuit("reverse")
        c.vsource("V1", "a", "0", dc=0.0)
        c.vsource("V2", "b", "0", dc=1.0)
        c.vsource("VG", "g", "0", dc=2.0)
        c.mosfet("M1", "a", "g", "b", "0", NMOS, w=10e-6, l=1e-6)
        result = solve_dc(c)
        op = result.op("M1")
        assert op["swapped"] is True
        assert op["vds"] >= 0.0

    def test_multiplier_scales_current(self):
        def drain_current(m):
            c = Circuit("mult")
            c.vsource("VDD", "vdd", "0", dc=3.3)
            c.vsource("VG", "g", "0", dc=1.0)
            c.mosfet("M1", "vdd", "g", "0", "0", NMOS, w=10e-6, l=1e-6, m=m)
            return solve_dc(c).op("M1")["ids"]
        assert drain_current(4) == pytest.approx(4 * drain_current(1),
                                                 rel=1e-6)


class TestRobustness:
    def test_warm_start_reduces_iterations(self):
        c = divider()
        cold = solve_dc(c)
        warm = solve_dc(c, x0=cold.x)
        assert warm.iterations <= cold.iterations

    def test_singular_matrix_reported(self):
        c = Circuit("loop")
        c.vsource("V1", "a", "0", dc=1.0)
        c.vsource("V2", "a", "0", dc=2.0)  # conflicting source loop
        c.resistor("R1", "a", "0", 1e3)
        with pytest.raises((SingularMatrixError, ConvergenceError)):
            solve_dc(c)

    def test_temperature_changes_operating_point(self):
        c = Circuit("temp")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        cold = solve_dc(c, temp_c=-40.0).voltage("d")
        hot = solve_dc(c, temp_c=125.0).voltage("d")
        assert cold != pytest.approx(hot, abs=1e-3)

    def test_voltages_dict_covers_all_nodes(self):
        result = solve_dc(divider())
        assert set(result.voltages()) == {"in", "out"}

    def test_unknown_node_raises(self):
        result = solve_dc(divider())
        with pytest.raises(KeyError):
            result.voltage("nope")
        assert result.voltage("0") == 0.0

    def test_unknown_device_op_raises(self):
        result = solve_dc(divider())
        with pytest.raises(KeyError):
            result.op("M404")
        with pytest.raises(KeyError):
            result.source_current("R1")  # no branch current


class _StubLayout:
    def __init__(self, n_nodes, size):
        self.n_nodes = n_nodes
        self.size = size


class _StubSystem:
    """Linear-solve stub returning a fixed point regardless of x."""

    def __init__(self, x_star):
        self.x_star = np.asarray(x_star, dtype=float)

    def solve_at(self, x):
        return self.x_star.copy()


class _StubBackend:
    def __init__(self, x_star):
        self._x_star = x_star

    def dc_system(self, circuit, layout, gmin):
        return _StubSystem(self._x_star)


class TestNewtonConvergenceBranches:
    """Regression tests for the two explicit convergence branches of
    ``_newton``: the degenerate no-node-voltages case returns on the
    first accepted step, and the normal case tests the damped step
    against the absolute/relative tolerance."""

    def test_no_node_voltages_converges_on_first_accepted_step(self):
        # nv == 0: the whole state is branch currents, the damping test
        # is vacuous (step = 0.0) and any finite solve is converged —
        # even one that jumps far from x0.
        layout = _StubLayout(n_nodes=0, size=2)
        circuit = Circuit("branch-only-stub")
        x, iterations = _newton(circuit, layout, np.zeros(2), GMIN_FINAL,
                                _StubBackend([5.0, -3.0]))
        assert iterations == 1
        assert np.array_equal(x, [5.0, -3.0])

    def test_node_voltages_require_tolerance(self):
        # nv > 0 with a fixed point inside the damping limit: iteration 1
        # accepts the full step (|delta| = 0.5 > tolerance, so it does
        # not converge yet); iteration 2 has delta = 0 and converges.
        layout = _StubLayout(n_nodes=1, size=1)
        circuit = Circuit("one-node-stub")
        x, iterations = _newton(circuit, layout, np.zeros(1), GMIN_FINAL,
                                _StubBackend([0.5]))
        assert iterations == 2
        assert np.array_equal(x, [0.5])


class TestGminSchedule:
    def test_schedule_shared_by_both_solvers(self):
        values = list(gmin_schedule())
        assert values[0] == GMIN_START
        assert values[-1] == GMIN_FINAL  # the literal, bitwise
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v >= GMIN_FINAL for v in values)
        # The interior values are products of repeated multiplication,
        # which the docstring warns are not the round literals.
        assert values[1] == GMIN_START * GMIN_FACTOR


class TestSourceStepping:
    def _diode_circuit(self):
        c = Circuit("diode")
        c.vsource("VDD", "vdd", "0", dc=3.3)
        c.resistor("R1", "vdd", "d", 100e3)
        c.mosfet("M1", "d", "d", "0", "0", NMOS, w=20e-6, l=1e-6)
        return c

    def test_restores_caller_scales_on_success(self):
        c = self._diode_circuit()
        layout = c.layout()
        backend = resolve_backend(None, layout.n_nodes)
        for dev in c.devices:
            dev.prepare(27.0)
        sources = [d for d in c.devices
                   if isinstance(d, (Vsource, Isource))]
        sources[0].scale = 0.25
        _source_stepping(c, layout, np.zeros(layout.size), backend)
        assert sources[0].scale == 0.25

    def test_restores_caller_scales_on_failure(self, monkeypatch):
        c = self._diode_circuit()
        layout = c.layout()
        backend = resolve_backend(None, layout.n_nodes)
        for dev in c.devices:
            dev.prepare(27.0)
        sources = [d for d in c.devices
                   if isinstance(d, (Vsource, Isource))]
        sources[0].scale = 0.75
        monkeypatch.setattr(dc_module, "MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceError):
            _source_stepping(c, layout, np.zeros(layout.size), backend)
        assert sources[0].scale == 0.75

    def test_ramp_ends_at_full_scale(self):
        assert SOURCE_SCALES[-1] == 1.0


class TestDcEffort:
    def test_counts_winning_strategy(self):
        effort = Effort(declare=DC_EFFORT_KEYS)
        solve_dc(divider(), effort=effort)
        assert effort["dc_effort.newton"] == 1
        assert effort["dc_effort.failed"] == 0

    def test_counts_warm_strategy(self):
        effort = Effort(declare=DC_EFFORT_KEYS)
        cold = solve_dc(divider())
        solve_dc(divider(), x0=cold.x, effort=effort)
        assert effort["dc_effort.newton-warm"] == 1
        assert effort["dc_effort.newton"] == 0

    def test_counts_exhausted_chain_as_failed(self, monkeypatch):
        monkeypatch.setattr(dc_module, "MAX_ITERATIONS", 0)
        effort = Effort(declare=DC_EFFORT_KEYS)
        with pytest.raises(ConvergenceError):
            solve_dc(divider(), effort=effort)
        stats = effort.namespace("dc_effort")
        assert stats["failed"] == 1
        assert all(stats[key] == 0 for key in DC_STRATEGIES
                   if key != "failed")

    def test_fold_and_delta_keep_declared_strategies(self):
        a = Effort(declare=DC_EFFORT_KEYS)
        a.count("dc_effort.newton", 3)
        a.count("dc_effort.gmin-stepping")
        before = a.snapshot()
        a += Effort({"dc_effort.newton": 2, "dc_effort.source-stepping": 1})
        delta = a - before
        assert delta.namespace("dc_effort") == {
            "newton-warm": 0, "newton": 2, "gmin-stepping": 0,
            "source-stepping": 1, "failed": 0}
        a.clear()
        assert all(v == 0 for v in a.namespace("dc_effort").values())
