"""One sweep in a fresh interpreter: the unit every timed measurement uses.

    python worker.py SRC_DIR CONFIG RESULT_JSON [SPANS_JSONL]

Imports crossfed from SRC_DIR, parses CONFIG and runs
``crossfed.harness.run_sweep``, the function ``crossfed sweep`` calls.
RESULT_JSON receives CLOCK_MONOTONIC timestamps (so the parent can time
set-up from the moment it started this process) and peak RSS. With
SPANS_JSONL the crossfed functions are traced, the spans are written
there after the sweep, and the sweep's Paillier keys and a sample of its
ciphertexts are checked; untraced sweeps import nothing extra.
"""
import json
import os
import resource
import sys
import time


def check_crypto(tracer, paillier) -> dict:
    """Digest of the traced sweep's keys, and checks on its ciphertexts.

    The metrics CSV does not depend on ciphertexts, so a change that
    weakened or skipped Paillier would pass the output check. Each
    upload's first ciphertext must differ from its encoded plaintext,
    carry randomness (a ciphertext 1 + m*n without it is 1 mod n) and
    decrypt back to the plaintext under the cell's own secret key.
    """
    import hashlib

    keys = [pk for _, (pk, _) in tracer.kept["paillier.keygen"]]
    secret = {pk.n: sk for _, (pk, sk) in tracer.kept["paillier.keygen"]}
    decrypt = tracer.original["paillier.decrypt"]
    problems = set()
    for args, cv in tracer.kept["paillier.encrypt_params"]:
        pk = args["pk"]
        m = paillier.encode_real(args["codec"], float(args["params"].values[0]))
        c = cv.elements[0]
        if pk.n not in secret:
            problems.add("encrypt_params used a key that keygen did not make")
        elif c == m:
            problems.add("encrypt_params left a coordinate unencrypted")
        elif c % pk.n == 1:
            problems.add("encrypt_params used no randomness")
        elif decrypt(secret[pk.n], pk, c) != m:
            problems.add("a ciphertext does not decrypt to its plaintext")
    return {
        "key_bits": [pk.n.bit_length() for pk in keys],
        "keys": hashlib.sha256(",".join(str(pk.n) for pk in keys).encode()).hexdigest()[:16],
        "crypto_problems": sorted(problems),
    }


def main() -> int:
    src, config_path, result_path = sys.argv[1:4]
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    sys.path.insert(0, src)
    import crossfed
    from crossfed import config, harness

    origin = os.path.dirname(os.path.abspath(crossfed.__file__))
    if os.path.dirname(origin) != os.path.abspath(src):
        print(f"crossfed imported from {origin}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    cfg = config.parse_config(config_path)
    setup_end = time.monotonic_ns()
    harness.run_sweep(cfg)
    sweep_end = time.monotonic_ns()

    result = {
        "setup_end_ns": setup_end,
        "sweep_end_ns": sweep_end,
        "maxrss_kib_self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_kib_children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        from crossfed import federation, paillier

        encryptions = tracer.kept["paillier.encrypt_params"]
        # bytes FCS1 actually emits vs the cost model's per-upload estimate
        result["wire_bytes"] = sum(len(paillier.serialize_cipher_vector(cv)) for _, cv in encryptions)
        result["cost_model_upload_bytes"] = sum(
            federation._upload_bytes("he-fl", len(args["params"].values), 1, args["pk"].bits)
            for args, _ in encryptions
        )
        result.update(check_crypto(tracer, paillier))
        result["missing"] = tracer.missing
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
