"""Code generation: C emission, memory layout and the reference interpreter."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "c_emitter": ("c_identifier", "emit_c", "emit_expr"),
    "interp": ("InterpreterError", "allocate_arrays", "run_kernel"),
    "layout": ("ArrayLayout", "MemoryLayout"),
})
