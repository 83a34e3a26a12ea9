"""Tests for the shared-memory payload transport (repro.parallel.shm)."""

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.parallel import shm
from repro.parallel.shm import (
    OpenPayload,
    SharedRef,
    ShmHandle,
    dump_to_shm,
    load_from_shm,
    release_shared,
    resolve_shared,
    shared,
    unlink_handle,
)


@dataclass
class SoABundle:
    """A stand-in for the levelized SoA timing arrays."""

    arrival: np.ndarray
    slew: np.ndarray
    names: list


def _bundle(n: int = 1000) -> SoABundle:
    rng = np.random.default_rng(7)
    return SoABundle(
        arrival=rng.standard_normal(n),
        slew=rng.standard_normal(n).astype(np.float32),
        names=[f"g{i}" for i in range(n)],
    )


class TestRoundtrip:
    def test_copying_load(self):
        bundle = _bundle()
        handle = dump_to_shm(bundle)
        try:
            out = load_from_shm(handle, copy=True)
            np.testing.assert_array_equal(out.arrival, bundle.arrival)
            np.testing.assert_array_equal(out.slew, bundle.slew)
            assert out.names == bundle.names
            # copies own their memory: segment death cannot touch them
            assert out.arrival.flags.owndata or out.arrival.base is not handle
        finally:
            unlink_handle(handle)

    def test_zero_copy_load(self):
        bundle = _bundle()
        handle = dump_to_shm(bundle)
        try:
            opened = load_from_shm(handle, copy=False)
            assert isinstance(opened, OpenPayload)
            np.testing.assert_array_equal(opened.obj.arrival, bundle.arrival)
            # the array aliases the shared pages rather than owning a copy
            assert not opened.obj.arrival.flags.owndata
            opened.close()
            assert opened.obj is None
        finally:
            unlink_handle(handle)

    def test_plain_objects_without_buffers(self):
        obj = {"rows": [1, 2, 3], "label": "aes"}
        handle = dump_to_shm(obj)
        try:
            assert load_from_shm(handle, copy=True) == obj
        finally:
            unlink_handle(handle)

    def test_handle_is_small_and_picklable(self):
        handle = dump_to_shm(_bundle())
        try:
            assert isinstance(handle, ShmHandle)
            assert len(pickle.dumps(handle)) < 200
        finally:
            unlink_handle(handle)

    def test_unlink_is_idempotent(self):
        handle = dump_to_shm([1, 2, 3])
        unlink_handle(handle)
        unlink_handle(handle)  # second unlink: no-op, no raise


class TestSharedRefs:
    def test_thread_backend_creates_no_segment(self):
        ref = shared({"a": 1}, backend="thread")
        try:
            assert ref.handle is None
            assert resolve_shared(ref) == {"a": 1}
        finally:
            release_shared(ref)

    def test_process_backend_creates_segment(self):
        payload = _bundle(100)
        ref = shared(payload, backend="process")
        try:
            assert ref.handle is not None
            # local side resolves to the identical object, no copy
            assert resolve_shared(ref) is payload
        finally:
            release_shared(ref)

    def test_pickled_ref_resolves_from_segment(self):
        payload = _bundle(100)
        ref = shared(payload, backend="process")
        try:
            # simulate the worker side: the ref crosses a pipe, losing
            # its in-process object, and must resolve through the segment
            remote = pickle.loads(pickle.dumps(ref))
            assert remote._local is None
            out = resolve_shared(remote)
            np.testing.assert_array_equal(out.arrival, payload.arrival)
            # second resolve hits the memo (same object back)
            assert resolve_shared(remote) is out
        finally:
            release_shared(ref)

    def test_release_unlinks_and_resolution_fails(self):
        ref = shared(_bundle(50), backend="process")
        remote = pickle.loads(pickle.dumps(ref))
        release_shared(ref)
        release_shared(remote)  # drop any memoized copy too
        with pytest.raises((ValueError, FileNotFoundError)):
            resolve_shared(pickle.loads(pickle.dumps(remote)))

    def test_ref_without_payload_raises(self):
        ref = SharedRef(token="never-created")
        with pytest.raises(ValueError, match="no payload"):
            resolve_shared(ref)


class TestThreshold:
    def test_default(self):
        """The pool ships payloads under 64 KiB inline, larger ones via shm."""
        from repro.parallel.pool import ProcessPool

        assert shm.DEFAULT_SHM_MIN_BYTES == 64 * 1024
        pool = object.__new__(ProcessPool)  # payload routing needs no workers
        big = np.zeros(shm.DEFAULT_SHM_MIN_BYTES // 8 + 1)
        payloads, handles = pool._prepare_payloads([np.zeros(8), big])
        try:
            assert [kind for kind, _ in payloads] == ["inline", "shm"]
        finally:
            for handle in handles:
                unlink_handle(handle)
