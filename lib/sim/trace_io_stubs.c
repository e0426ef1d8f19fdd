/* Page release for the flat trace reader.
 *
 * Drops the resident pages under a byte range of a mapped Bigarray with
 * madvise(MADV_DONTNEED). The reader maps its columns MAP_PRIVATE from a
 * read-only descriptor and never writes them, so a released page holds
 * nothing private: a later touch re-faults it from the file. Both ends
 * of the range round down to a page boundary, so the call never reaches
 * past the mapping (the mapping itself starts on the page holding its
 * first byte). A Bigarray that is not a file mapping is left alone.
 */
#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stdint.h>
#include <sys/mman.h>
#include <unistd.h>

CAMLprim value ddg_trace_io_release_pages(value ba, value off, value len)
{
  uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
  uintptr_t start = (uintptr_t)Caml_ba_data_val(ba) + Long_val(off);
  uintptr_t lo = start & ~(page - 1);
  uintptr_t hi = (start + Long_val(len)) & ~(page - 1);
  if ((Caml_ba_array_val(ba)->flags & CAML_BA_MANAGED_MASK)
        == CAML_BA_MAPPED_FILE
      && hi > lo)
    madvise((void *)lo, hi - lo, MADV_DONTNEED);
  return Val_unit;
}
