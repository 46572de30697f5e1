"""Deterministic JSON encoding and digests shared across modules."""

from __future__ import annotations

import json
from typing import Any

try:  # the built-in SHA-256 loads no OpenSSL: about 3.5 MB less RSS than hashlib's
    from _sha256 import sha256  # Python 3.10-3.11; 3.12+ and builds without it use hashlib's
except ImportError:
    from hashlib import sha256


def canonical_json(value: Any) -> str:
    """Compact JSON with no whitespace, used wherever bytes must be stable.

    Key order is preserved as given (callers pass ordered structures), text is
    not ASCII-escaped, so `{"s": "naïve"}` stays readable in prompts.
    """
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def stable_digest(value: Any, length: int = 8) -> str:
    """Hex digest of the canonical encoding, truncated to `length` chars."""
    raw = canonical_json(value).encode("utf-8")
    return sha256(raw).hexdigest()[:length]
