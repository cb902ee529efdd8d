#ifndef VCQ_COMMON_ENV_UTIL_H_
#define VCQ_COMMON_ENV_UTIL_H_

#include <cstdint>
#include <string>

namespace vcq {

/// Configuration of bench binaries via environment variables: VCQ_SF,
/// VCQ_REPS, VCQ_THREADS, VCQ_QUICK. Each getter returns the given
/// default when the variable is unset or unparsable.
double EnvDouble(const char* name, double default_value);
int64_t EnvInt(const char* name, int64_t default_value);
bool EnvFlag(const char* name);  // set and != "0"
std::string EnvString(const char* name, const std::string& default_value);

}  // namespace vcq

#endif  // VCQ_COMMON_ENV_UTIL_H_
