"""WiSS storage substrate: pages, heap files, B+-trees, buffers, sort."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".btree": (
        "BPlusTree", "BTreeNode", "SearchPath", "build_dense_index",
        "build_sparse_index",
    ),
    ".buffer": ("BufferPool",),
    ".heap": ("RID", "HeapFile", "build_heap_file", "expected_pages"),
    ".page": (
        "PAGE_HEADER_BYTES", "RECORD_OVERHEAD_BYTES", "Page",
        "records_per_page",
    ),
    ".schema": ("Attribute", "AttrType", "Schema", "int_attr", "string_attr"),
    ".sort": ("SortStats", "external_sort"),
    ".wiss": ("PageAccess", "StoredFile"),
})
