"""Clean for DDC003: only touches the streamed batch."""


class Dedup:
    def _begin_file(self, file):
        self._size = file.size  # metadata is fine outside the hook

    def _ingest_chunks(self, batch, digests):
        for chunk in batch:
            _ = bytes(chunk.data)  # per-chunk bytes are stream-local
