#include "gotoblas/goto_gemm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "pack/pack.hpp"

namespace cake {

GotoBlocking goto_default_blocking(const MachineSpec& machine, index_t mr,
                                   index_t nr, index_t elem_bytes)
{
    CAKE_CHECK(elem_bytes >= 1);
    GotoBlocking blocking;
    blocking.mc =
        square_private_block(machine, mr, /*fraction=*/0.5, elem_bytes);
    blocking.kc = blocking.mc;
    // GOTO fills the LLC with the kc x nc B panel (§4.4).
    const double llc_elems = 0.9 * static_cast<double>(machine.llc_bytes())
        / static_cast<double>(elem_bytes);
    blocking.nc = static_cast<index_t>(
        llc_elems / static_cast<double>(blocking.kc));
    blocking.nc = std::max<index_t>(blocking.nc / nr * nr, nr);
    return blocking;
}

CbBlockParams goto_plan_params(const MachineSpec& machine, int p, index_t mr,
                               index_t nr, index_t elem_bytes)
{
    const GotoBlocking blocking =
        goto_default_blocking(machine, mr, nr, elem_bytes);
    TilingOptions topts;
    topts.mc = blocking.mc;
    topts.kc = blocking.kc;
    topts.nc = blocking.nc;
    topts.elem_bytes = elem_bytes;
    return compute_cb_block(machine, p, mr, nr, topts);
}

template <typename T>
CakeOptions goto_cake_options(const GotoOptions& options)
{
    const MicroKernelT<T> kernel = options.isa
        ? microkernel_for_of<T>(*options.isa)
        : best_microkernel_of<T>();
    CakeOptions cake;
    cake.machine = options.machine ? *options.machine : host_machine();
    const GotoBlocking defaults = goto_default_blocking(
        *cake.machine, kernel.mr, kernel.nr, static_cast<index_t>(sizeof(T)));
    cake.p = options.p;
    cake.mc = options.mc.value_or(defaults.mc);
    cake.kc = cake.mc;
    cake.nc = options.nc.value_or(defaults.nc);
    CAKE_CHECK_MSG(*cake.nc >= kernel.nr && *cake.nc % kernel.nr == 0,
                   "nc must be a positive multiple of nr");
    cake.schedule = ScheduleKind::kGoto;
    cake.exec = CakeExec::kSerial;
    cake.accumulate = options.accumulate;
    cake.isa = options.isa;
    return cake;
}

template CakeOptions goto_cake_options<float>(const GotoOptions&);
template CakeOptions goto_cake_options<double>(const GotoOptions&);

template <typename T>
GotoGemmT<T>::GotoGemmT(ThreadPool& pool, GotoOptions options)
    : cake_(pool, goto_cake_options<T>(options))
{
}

template <typename T>
void GotoGemmT<T>::multiply(const T* a, index_t lda, const T* b, index_t ldb,
                            T* c, index_t ldc, index_t m, index_t n,
                            index_t k)
{
    cake_.multiply(a, lda, b, ldb, c, ldc, m, n, k);
    if (m == 0 || n == 0 || k == 0) return;  // no plan ran
    const CakeStats& s = cake_.stats();
    stats_.mc = s.params.mc;
    stats_.kc = s.params.kc;
    stats_.nc = s.params.n_blk;
    stats_.c_passes = s.grid_nb * s.grid_kb;
    stats_.a_packs = stats_.c_passes * ceil_div(m, stats_.mc);
    stats_.b_packs = s.b_packs;
    stats_.dram_read_bytes = s.dram_read_bytes;
    stats_.dram_write_bytes = s.dram_write_bytes;
    stats_.pack_seconds = s.pack_seconds;
    stats_.compute_seconds = s.compute_seconds;
    stats_.stall_seconds = s.stall_seconds;
    stats_.total_seconds = s.total_seconds;
    stats_.overlap_efficiency = s.overlap_efficiency;
}

template class GotoGemmT<float>;
template class GotoGemmT<double>;

void goto_sgemm(const float* a, const float* b, float* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options, GotoStats* stats)
{
    GotoGemm gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

void goto_dgemm(const double* a, const double* b, double* c, index_t m,
                index_t n, index_t k, ThreadPool& pool,
                const GotoOptions& options, GotoStats* stats)
{
    GotoGemmD gemm(pool, options);
    gemm.multiply(a, k, b, n, c, n, m, n, k);
    if (stats != nullptr) *stats = gemm.stats();
}

Matrix goto_gemm(const Matrix& a, const Matrix& b, ThreadPool& pool,
                 const GotoOptions& options, GotoStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols());
    goto_sgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

MatrixD goto_gemm(const MatrixD& a, const MatrixD& b, ThreadPool& pool,
                  const GotoOptions& options, GotoStats* stats)
{
    CAKE_CHECK(a.cols() == b.rows());
    MatrixD c(a.rows(), b.cols());
    goto_dgemm(a.data(), b.data(), c.data(), a.rows(), b.cols(), a.cols(),
               pool, options, stats);
    return c;
}

}  // namespace cake
