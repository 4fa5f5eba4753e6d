"""Clean for DDC006: counters move through the helpers."""


class Dedup:
    def _ingest_chunks(self, batch, digests):
        for chunk in batch:
            self._count_duplicate(chunk.size, run_continues=True)
