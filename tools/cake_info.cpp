// cake_info: installation doctor. Prints detected CPU features, cache
// topology, the kernels runtime dispatch will choose, the CB block the
// solver derives for this host, and runs the full kernel self-test.
// Exit code 0 iff every kernel passes.
#include <iostream>
#include <string>

#include "cache/topology.hpp"
#include "common/csv.hpp"
#include "core/tiling.hpp"
#include "kernel/registry.hpp"
#include "kernel/selftest.hpp"
#include "machine/machine.hpp"

int main()
{
    using namespace cake;

    std::cout << "=== CPU features ===\n";
    const CpuFeatures& f = cpu_features();
    std::cout << "  avx2+fma : " << (f.avx2 ? "yes" : "no") << "\n"
              << "  avx512f  : " << (f.avx512f ? "yes" : "no") << "\n"
              << "  avx512bw : " << (f.avx512bw ? "yes" : "no") << "\n\n";

    std::cout << "=== Cache hierarchy (detected) ===\n";
    for (const CacheLevel& l : detect_host_caches().levels) {
        std::cout << "  L" << l.level << ": "
                  << static_cast<double>(l.size_bytes) / 1024.0 << " KiB, "
                  << l.ways << "-way, " << l.line_bytes
                  << "B lines, shared by " << l.shared_by_cores
                  << " core(s)\n";
    }

    std::cout << "\n=== Dispatched kernels ===\n";
    for_each_kernel_family([]<typename F>() {
        const std::string name = KernelFamily<F>::name;
        std::cout << "  " << name << std::string(5 - name.size(), ' ')
                  << ": " << best_microkernel_of<F>().name << "\n";
    });

    const MachineSpec host = host_machine();
    const MicroKernel& k = best_microkernel();
    const CbBlockParams params =
        compute_cb_block(host, host.cores, k.mr, k.nr);
    std::cout << "\n=== Solved CB block for this host (" << host.cores
              << " core(s)) ===\n"
              << "  " << params.m_blk << " x " << params.k_blk << " x "
              << params.n_blk << "  (mc=kc=" << params.mc
              << ", alpha=" << params.alpha << ")\n"
              << "  arithmetic intensity : "
              << params.arithmetic_intensity() << " flops/byte\n"
              << "  LRU working set      : "
              << static_cast<double>(params.lru_working_set_bytes())
            / 1048576.0
              << " MiB of "
              << static_cast<double>(host.llc_bytes()) / 1048576.0
              << " MiB LLC\n";

    std::cout << "\n=== Kernel self-test ===\n";
    Table table({"kernel", "family", "max |err|", "status"});
    bool all_ok = true;
    for (const KernelSelfTestResult& r : run_kernel_selftest()) {
        table.add_row({r.kernel, r.family, format_number(r.max_error, 4),
                       r.passed ? "PASS" : "FAIL"});
        all_ok = all_ok && r.passed;
    }
    table.print(std::cout);
    std::cout << (all_ok ? "\nAll kernels OK.\n"
                         : "\nKERNEL SELF-TEST FAILED.\n");
    return all_ok ? 0 : 1;
}
