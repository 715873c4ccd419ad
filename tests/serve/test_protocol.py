"""Wire protocol: codecs, tenant names, the fingerprint chain."""

import json

import pytest

from repro.common.errors import ServeError
from repro.serve import protocol
from repro.serve.client import TenantPlan
from repro.workloads import get_workload
from repro.workloads.executor import Executor


def _branches(count=25, workload="transactions", seed=3):
    executor = Executor(get_workload(workload, seed), seed=seed)
    return list(executor.run(max_branches=count))


# -- tenant names --------------------------------------------------------

@pytest.mark.parametrize("name", ["t", "tenant-0", "A.b_c-9", "x" * 64])
def test_valid_tenant_names(name):
    assert protocol.validate_tenant(name) == name


@pytest.mark.parametrize("name", [
    "", ".hidden", "-lead", "has space", "a/b", "x" * 65, 7, None,
])
def test_invalid_tenant_names(name):
    with pytest.raises(ServeError):
        protocol.validate_tenant(name)


# -- messages ------------------------------------------------------------

def test_message_roundtrip():
    message = {"op": "predict", "id": 3, "branches": [[0, 1]]}
    line = protocol.encode_message(message)
    assert line.endswith(b"\n")
    assert protocol.decode_message(line) == message


def test_decode_message_rejects_garbage():
    with pytest.raises(ServeError):
        protocol.decode_message(b"{torn\n")
    with pytest.raises(ServeError):
        protocol.decode_message(b'"not an object"\n')


# -- branch codec --------------------------------------------------------

def test_branch_roundtrip_is_lossless():
    for branch in _branches():
        row = protocol.encode_branch(branch)
        # The row must survive a JSON trip (that is the wire).
        row = json.loads(json.dumps(row))
        decoded = protocol.decode_branch(row)
        assert decoded.instruction.address == branch.instruction.address
        assert decoded.instruction.kind == branch.instruction.kind
        assert decoded.taken == branch.taken
        assert decoded.target == branch.target
        assert decoded.context == branch.context
        assert decoded.thread == branch.thread
        # And re-encode to the identical row.
        assert protocol.encode_branch(decoded) == row


@pytest.mark.parametrize("row", [
    [], [1, 2], "nope", None, [0, "addr", 4, "cond-rel", 0, 1, 0, 0, 0],
])
def test_decode_branch_rejects_malformed_rows(row):
    with pytest.raises(ServeError):
        protocol.decode_branch(row)


# -- static-instruction decode cache -------------------------------------

def _uncached(row):
    protocol._static_instruction.cache_clear()
    return protocol.decode_branch(row)


def test_decode_cache_keeps_rows_that_differ_only_in_type_apart():
    row = next(protocol.encode_branch(branch) for branch in _branches()
               if branch.instruction.static_target is not None)
    address, length, target = row[1], row[2], row[4]
    variants = [
        row,
        row[:1] + [float(address)] + row[2:],
        row[:2] + [float(length)] + row[3:],
        row[:4] + [float(target)] + row[5:],
        [0, 0, 4, "cond-rel", 0, 1, 0, 0, 0],
        [0, False, 4, "cond-rel", False, 1, 0, 0, 0],
    ]
    # repr shows every field with its type (4 vs 4.0, 0 vs False).
    expected = [repr(_uncached(variant)) for variant in variants]
    assert len(set(expected)) == len(variants)
    protocol._static_instruction.cache_clear()
    for _round in range(2):  # cold, then warm
        assert [repr(protocol.decode_branch(variant))
                for variant in variants] == expected


@pytest.mark.parametrize("row", [
    [0, 5, 4, "cond-rel", 8, 1, 8, 0, 0],     # address not halfword aligned
    [0, True, 4, "cond-rel", 8, 1, 8, 0, 0],  # ... as a bool
    [0, 4, 1, "cond-rel", 8, 1, 8, 0, 0],     # no such length
    [0, 4, True, "cond-rel", 8, 1, 8, 0, 0],
    [0, 4, 4, "bogus", 8, 1, 8, 0, 0],        # no such kind
    [0, [4], 4, "cond-rel", 8, 1, 8, 0, 0],   # unhashable
])
def test_decode_cache_never_remembers_a_rejected_row(row):
    valid = [0, 4, 4, "cond-rel", 8, 1, 8, 0, 0]
    protocol.decode_branch(valid)  # a warm neighbour site
    size = protocol._static_instruction.cache_info().currsize
    for _attempt in range(2):
        with pytest.raises(ServeError):
            protocol.decode_branch(row)
    assert protocol._static_instruction.cache_info().currsize == size


def test_decode_cache_stays_at_its_bound():
    bound = protocol.DECODE_CACHE_SIZE
    for site in range(bound + 100):
        protocol.decode_branch([site, 2 * site, 2, "uncond-ind", None,
                                1, 8, 0, 0])
    info = protocol._static_instruction.cache_info()
    assert info.maxsize == bound
    assert info.currsize == bound


# -- fingerprint chain ---------------------------------------------------

def test_genesis_fingerprint_is_schema_anchored():
    assert protocol.GENESIS_FINGERPRINT == \
        __import__("hashlib").sha256(
            protocol.PROTOCOL_SCHEMA.encode("ascii")).hexdigest()


def test_fold_fingerprint_is_deterministic_and_order_sensitive():
    records = [[[0, 100, 4], True, 120, False], [[1, 120, 4], False, 0, True]]
    a = protocol.fold_fingerprint(protocol.GENESIS_FINGERPRINT, records)
    b = protocol.fold_fingerprint(protocol.GENESIS_FINGERPRINT, records)
    assert a == b
    flipped = protocol.fold_fingerprint(protocol.GENESIS_FINGERPRINT,
                                        list(reversed(records)))
    assert flipped != a
    # Chaining differs from folding everything at once: the chain
    # commits to batch boundaries too.
    chained = protocol.fold_fingerprint(a, records)
    assert chained not in (a, flipped)


def test_tenant_plan_batches_are_deterministic():
    plan = TenantPlan("t0", workload="dispatch", seed=11, branches=60,
                      batch_size=25)
    first, second = plan.batches(), plan.batches()
    assert first == second
    assert [len(batch) for batch in first] == [25, 25, 10]
