"""The sweep's outputs against the digests recorded in the manifest; see
`equivalence_digests.py` for the sweep and for how to re-record it."""

import json

import equivalence_digests as digests


def test_every_output_family_matches_its_recorded_digest():
    manifest = json.loads(digests.MANIFEST.read_text())
    assert list(manifest) == list(digests.FAMILIES)
    assert digests.moved(digests.compute(), manifest) == []
