"""Exit-less monitor and ring buffer tests."""

import pytest

from repro.obs.ring import RingBuffer
from repro.tee import Enclave, EnclaveMonitor, Platform


class Noisy(Enclave):
    def ecall_work(self, monitor_ref):
        monitor_ref().emit_exitless("step-1")
        monitor_ref().emit_exitless("step-2")
        return 42

    def ecall_work_ocall(self, monitor_ref):
        monitor_ref().emit_ocall("err-1")
        return 42


class TestRingBuffer:
    def test_fifo(self):
        ring = RingBuffer(4)
        for i in range(3):
            ring.put(f"m{i}")
        assert ring.drain() == ["m0", "m1", "m2"]

    def test_empty_get(self):
        assert RingBuffer(4).get() is None

    def test_overwrite_oldest(self):
        ring = RingBuffer(3)
        for i in range(5):
            ring.put(f"m{i}")
        assert ring.dropped == 2
        assert ring.drain() == ["m2", "m3", "m4"]

    def test_len(self):
        ring = RingBuffer(8)
        ring.put("a")
        ring.put("b")
        assert len(ring) == 2
        ring.get()
        assert len(ring) == 1

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_wraparound_many(self):
        ring = RingBuffer(4)
        out = []
        for i in range(20):
            ring.put(str(i))
            if i % 3 == 0:
                out.extend(ring.drain())
        out.extend(ring.drain())
        assert out == [str(i) for i in range(20)]


class TestMonitor:
    def test_exitless_costs_no_transition(self):
        platform = Platform()
        enclave = Noisy(platform, "noisy")
        monitor = EnclaveMonitor(enclave)
        ocalls_before = platform.accountant.ocalls
        enclave.ecall("work", lambda: monitor)
        assert platform.accountant.ocalls == ocalls_before
        assert monitor.poll() == ["step-1", "step-2"]

    def test_ocall_path_costs_transition(self):
        platform = Platform()
        enclave = Noisy(platform, "noisy")
        monitor = EnclaveMonitor(enclave)
        ocalls_before = platform.accountant.ocalls
        enclave.ecall("work_ocall", lambda: monitor)
        assert platform.accountant.ocalls == ocalls_before + 1
        assert "err-1" in monitor.collected

    def test_poll_accumulates(self):
        platform = Platform()
        enclave = Noisy(platform, "noisy")
        monitor = EnclaveMonitor(enclave)
        enclave.ecall("work", lambda: monitor)
        monitor.poll()
        enclave.ecall("work", lambda: monitor)
        monitor.poll()
        assert monitor.collected == ["step-1", "step-2"] * 2
