"""SHA-256 from CPython's built-in module, so that OpenSSL is never loaded.

hashlib maps OpenSSL's libcrypto (3.4 MB resident) for its sha256; the
built-in module gives the same digest of the same bytes, only slower. The
standard library's random makes the same choice. This module imports
nothing else, so any Python can load it on its own.
"""

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
